"""Batching, state export and Loom's batch entry point — what the
benchmark's ingest loop and the live cluster's ingest rounds build on."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import make_random_labelled_graph

from repro.graph.stream import batched, stream_edges, synthetic_stream
from repro.partitioning.state import PartitionState
from repro.query.pattern import path_pattern
from repro.query.workload import Workload


def tiny_workload():
    return Workload(
        [
            (path_pattern(["a", "b", "a", "b"], name="abab"), 0.5),
            (path_pattern(["a", "b", "c"], name="abc"), 0.5),
        ],
        name="runtime-tests",
    )


class TestBatched:
    def test_preserves_order_and_content(self):
        events = list(synthetic_stream(20, 40, seed=0))
        rebatched = [ev for batch in batched(events, 7) for ev in batch]
        assert rebatched == events

    def test_batch_sizes(self):
        events = list(synthetic_stream(20, 40, seed=0))
        sizes = [len(b) for b in batched(events, 16)]
        assert sizes == [16, 16, 8]

    def test_empty_stream(self):
        assert list(batched([], 4)) == []

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(batched([], 0))


class TestStateExport:
    def test_export_roundtrip(self):
        state = PartitionState(3, 10)
        state.assign("x", 0)
        state.assign("y", 2)
        assert state.export_ids() == [(0, 0), (1, 2)]
        assert state.export_assignment() == [("x", 0), ("y", 2)]
        rebuilt = PartitionState(3, 10)
        for vertex, partition in state.export_assignment():
            rebuilt.assign(vertex, partition)
        assert rebuilt.assignment() == state.assignment()


class TestLoomBatchEntryPoint:
    def test_ingest_batch_matches_per_event_ingest(self):
        """The batch-offer entry point is an amortisation, not a semantic
        change: same assignments, same matcher counters, same stats."""
        graph = make_random_labelled_graph(60, 140, seed=5)
        events = list(stream_edges(graph, "bfs", seed=3))
        workload = tiny_workload()
        from repro.core.loom import LoomPartitioner

        state_a = PartitionState.for_graph(4, graph.num_vertices)
        loom_a = LoomPartitioner(state_a, workload, window_size=40, seed=0)
        loom_a.ingest_all(events)

        state_b = PartitionState.for_graph(4, graph.num_vertices)
        loom_b = LoomPartitioner(state_b, workload, window_size=40, seed=0)
        for batch in batched(events, 13):
            loom_b.ingest_batch(batch)
        loom_b.finalize()

        assert state_a.assignment() == state_b.assignment()
        # No matcher counter depends on the batch layout.
        assert loom_a.matcher.stats == loom_b.matcher.stats
        assert loom_a.stats == loom_b.stats
        assert loom_a.edges_ingested == loom_b.edges_ingested == len(events)


class TestRuntimeSurface:
    """``repro.runtime`` is the live cluster and nothing else."""

    def test_all_is_the_live_surface(self):
        import repro.runtime as runtime

        assert sorted(runtime.__all__) == [
            "LiveCluster",
            "SCHEMA_VERSION",
            "ServerStats",
            "ShardProcessError",
            "describe_exit",
            "shard_of_partition",
        ]
        assert all(hasattr(runtime, name) for name in runtime.__all__)

    def test_importing_the_live_cluster_loads_no_sharded_ingest_module(self):
        """Every benchmark process and shard server imports
        ``repro.runtime.live``; it must not drag a second harness along.
        Fresh interpreter: this process has imported who knows what."""
        probe = (
            "import sys, repro.runtime.live\n"
            "gone = ('driver', 'worker', 'merge', 'sharding')\n"
            "loaded = [m for m in gone if f'repro.runtime.{m}' in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
