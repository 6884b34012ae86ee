"""Tests for mid-stream ipt measurement with Ptemp as a partition."""

import pytest

from repro.core.loom import LoomPartitioner
from repro.datasets.registry import load_dataset
from repro.graph.stream import stream_edges
from repro.partitioning.state import PartitionState
from repro.query.online import snapshot_report, stream_with_snapshots


@pytest.fixture(scope="module")
def setup():
    dataset = load_dataset("provgen", 600, seed=8)
    events = list(stream_edges(dataset.graph, "bfs", seed=8))
    return dataset, events


class TestSnapshots:
    def test_stream_with_snapshots_progression(self, setup):
        dataset, events = setup
        state = PartitionState.for_graph(4, dataset.graph.num_vertices)
        loom = LoomPartitioner(state, dataset.workload, window_size=100)
        snapshots = list(
            stream_with_snapshots(loom, events, dataset.workload, every=300)
        )
        assert len(snapshots) == len(events) // 300 + 1
        # Edges seen grows monotonically and ends at the full stream.
        seen = [s.edges_seen for s in snapshots]
        assert seen == sorted(seen)
        assert seen[-1] == len(events)
        # The final snapshot has an empty window (finalize drained it).
        assert snapshots[-1].vertices_in_window == 0
        assert snapshots[-1].vertices_parked == 0
        assert snapshots[-1].vertices_placed == dataset.graph.num_vertices

    def test_mid_stream_snapshot_counts_ptemp(self, setup):
        dataset, events = setup
        state = PartitionState.for_graph(4, dataset.graph.num_vertices)
        loom = LoomPartitioner(state, dataset.workload, window_size=200)
        gen = stream_with_snapshots(loom, events, dataset.workload, every=400)
        first = next(gen)
        # Mid-stream, some vertices live only in Ptemp but every traversal
        # of the streamed-so-far graph still resolves.
        assert first.vertices_in_window > 0
        assert first.report.weighted_ipt >= 0.0

    def test_snapshot_view_is_readonly(self, setup):
        dataset, events = setup
        state = PartitionState.for_graph(4, dataset.graph.num_vertices)
        loom = LoomPartitioner(state, dataset.workload, window_size=100)
        for event in events[:200]:
            loom.ingest(event)
        from repro.graph.labelled_graph import LabelledGraph

        streamed = LabelledGraph()
        for event in events[:200]:
            streamed.add_edge(event.u, event.v, event.u_label, event.v_label)
        snapshot = snapshot_report(streamed, dataset.workload, loom)
        assert snapshot.edges_seen == streamed.num_edges
        from repro.query.online import _SnapshotView

        view = _SnapshotView(loom.state, loom.matcher.window.to_labelled_graph())
        with pytest.raises(TypeError):
            view.assign("x", 0)

    def test_every_validation(self, setup):
        dataset, events = setup
        state = PartitionState.for_graph(4, dataset.graph.num_vertices)
        loom = LoomPartitioner(state, dataset.workload, window_size=100)
        with pytest.raises(ValueError):
            list(stream_with_snapshots(loom, events, dataset.workload, every=0))

    def test_snapshot_ipt_includes_window_boundary(self, setup):
        """A snapshot's ipt can exceed the final ipt: edges between placed
        partitions and Ptemp are crossings the drained state won't have."""
        dataset, events = setup
        state = PartitionState.for_graph(4, dataset.graph.num_vertices)
        loom = LoomPartitioner(state, dataset.workload, window_size=400)
        snapshots = list(
            stream_with_snapshots(loom, events, dataset.workload, every=len(events))
        )
        final = snapshots[-1]
        assert final.vertices_in_window == 0

    def test_parked_vertex_is_a_ptemp_member(self):
        """A query may traverse a non-motif edge (its motif missed the
        support threshold) whose motif-label endpoint Loom has parked:
        neither placed nor in the window, it still resolves — to Ptemp."""
        from repro.graph.labelled_graph import LabelledGraph
        from repro.graph.stream import EdgeEvent
        from repro.query.pattern import path_pattern
        from repro.query.workload import Workload

        workload = Workload(
            [
                (path_pattern(["a", "b"], name="ab"), 0.9),
                (path_pattern(["a", "c"], name="ac"), 0.1),
            ],
            name="rare-ac",
        )
        state = PartitionState.for_graph(2, 10)
        loom = LoomPartitioner(state, workload, window_size=5)
        assert loom.plan.motif_labels == {"a", "b"}
        loom.ingest(EdgeEvent(1, "a", 2, "c"))  # a-c: below threshold, bypasses
        streamed = LabelledGraph()
        streamed.add_edge(1, 2, "a", "c")

        snapshot = snapshot_report(streamed, workload, loom)
        assert loom.parked_vertices() == [1]
        assert (snapshot.vertices_placed, snapshot.vertices_in_window) == (1, 0)
        assert snapshot.vertices_parked == 1
        by_name = {q.name: q for q in snapshot.report.queries}
        assert by_name["ac"].traversals == 1
        assert by_name["ac"].cut_traversals == 1  # placed c — parked a

        loom.finalize()
        final = snapshot_report(streamed, workload, loom)
        assert final.vertices_parked == 0
        assert final.vertices_placed == 2
