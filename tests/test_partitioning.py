"""Tests for partition state, the three baseline partitioners and metrics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.stream import EdgeEvent, stream_edges
from repro.partitioning.fennel import FennelPartitioner, fennel_alpha
from repro.partitioning.hash_partitioner import HashPartitioner, stable_hash
from repro.partitioning.ldg import LDGPartitioner, ldg_choose
from repro.partitioning.metrics import (
    communication_volume,
    cut_fraction,
    edge_cut,
    imbalance,
    partition_quality_summary,
    unassigned_vertices,
)
from repro.partitioning.state import PartitionState

from helpers import make_random_labelled_graph


class TestPartitionState:
    def test_for_graph_capacity(self):
        state = PartitionState.for_graph(4, 100, imbalance=1.1)
        assert state.capacity == 28  # ceil(1.1 * 100 / 4)

    @pytest.mark.parametrize(
        "k, imbalance, message",
        [(0, 1.1, "k must be at least 1"), (4, 0.5, "imbalance must be at least 1")],
    )
    def test_for_graph_rejects_bad_k_and_imbalance(self, k, imbalance, message):
        """``k`` is checked before it divides, and a slack below 1 would
        leave the partitions too small to hold the graph."""
        with pytest.raises(ValueError, match=message):
            PartitionState.for_graph(k, 100, imbalance=imbalance)

    def test_assign_and_lookup(self):
        state = PartitionState(2, 10)
        state.assign("v", 1)
        assert state.partition_of("v") == 1
        assert state.is_assigned("v")
        assert "v" in state
        assert state.sizes() == [0, 1]

    def test_reassign_same_partition_noop(self):
        state = PartitionState(2, 10)
        state.assign("v", 0)
        state.assign("v", 0)
        assert state.size(0) == 1

    def test_move_raises(self):
        state = PartitionState(2, 10)
        state.assign("v", 0)
        with pytest.raises(ValueError, match="permanent"):
            state.assign("v", 1)

    def test_partition_range_checked(self):
        state = PartitionState(2, 10)
        with pytest.raises(IndexError):
            state.assign("v", 2)

    def test_residual_capacity(self):
        state = PartitionState(1, 4)
        assert state.residual_capacity(0) == 1.0
        state.assign("a", 0)
        assert state.residual_capacity(0) == pytest.approx(0.75)

    def test_is_full_and_open(self):
        state = PartitionState(2, 1)
        state.assign("a", 0)
        assert state.is_full(0)
        assert state.open_partitions() == [1]

    def test_count_in_partition(self):
        state = PartitionState(2, 10)
        state.assign(1, 0)
        state.assign(2, 1)
        assert state.count_in_partition([1, 2, 3], 0) == 1
        assert state.count_in_partition([1, 2, 3], 1) == 1

    def test_smallest_partition_tie_break(self):
        state = PartitionState(3, 10)
        assert state.smallest_partition() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionState(0, 10)
        with pytest.raises(ValueError):
            PartitionState(2, 0)
        with pytest.raises(ValueError):
            PartitionState.for_graph(2, 0)


class TestHashPartitioner:
    def test_deterministic_across_instances(self):
        s1, s2 = PartitionState(4, 100), PartitionState(4, 100)
        e = EdgeEvent(1, "a", 2, "b")
        HashPartitioner(s1).ingest(e)
        HashPartitioner(s2).ingest(e)
        assert s1.assignment() == s2.assignment()

    def test_seed_changes_placement(self):
        placements = set()
        for seed in range(8):
            state = PartitionState(8, 100)
            HashPartitioner(state, seed=seed).ingest(EdgeEvent(1, "a", 2, "b"))
            placements.add(state.partition_of(1))
        assert len(placements) > 1

    def test_stable_hash_is_process_independent(self):
        assert stable_hash(123, 0) == stable_hash(123, 0)
        assert stable_hash(123, 0) != stable_hash(123, 1)

    def test_roughly_balanced(self, random_graph):
        state = PartitionState.for_graph(4, random_graph.num_vertices)
        HashPartitioner(state).ingest_all(stream_edges(random_graph, "bfs"))
        assert imbalance(state, random_graph.num_vertices) < 1.6


class TestLDG:
    def test_prefers_partition_with_neighbors(self):
        state = PartitionState(2, 100)
        state.assign("n1", 1)
        state.assign("n2", 1)
        assert ldg_choose(state, ["n1", "n2", "other"]) == 1

    def test_penalises_full_partitions(self):
        state = PartitionState(2, 4)
        for i in range(4):
            state.assign(("pad", i), 0)  # partition 0 full
        assert ldg_choose(state, []) == 1

    def test_cold_start_least_loaded(self):
        state = PartitionState(3, 100)
        state.assign("x", 0)
        assert ldg_choose(state, []) in (1, 2)

    def test_restrict_to(self):
        state = PartitionState(4, 100)
        state.assign("n", 0)
        assert ldg_choose(state, ["n"], restrict_to=[2, 3]) in (2, 3)

    def test_assigns_all_vertices(self, random_graph):
        state = PartitionState.for_graph(4, random_graph.num_vertices)
        LDGPartitioner(state).ingest_all(stream_edges(random_graph, "bfs"))
        assert unassigned_vertices(random_graph, state) == []

    def test_capacity_respected(self, random_graph):
        state = PartitionState.for_graph(4, random_graph.num_vertices)
        LDGPartitioner(state).ingest_all(stream_edges(random_graph, "random"))
        assert max(state.sizes()) <= state.capacity

    def test_beats_hash_on_edge_cut(self):
        g = make_random_labelled_graph(num_vertices=200, num_edges=420, seed=21)
        events = list(stream_edges(g, "bfs", seed=1))
        sh = PartitionState.for_graph(4, g.num_vertices)
        HashPartitioner(sh).ingest_all(events)
        sl = PartitionState.for_graph(4, g.num_vertices)
        LDGPartitioner(sl).ingest_all(events)
        assert edge_cut(g, sl) < edge_cut(g, sh)


class TestFennel:
    def test_alpha_formula(self):
        # alpha = sqrt(k) * m / n^1.5
        assert fennel_alpha(4, 100, 500) == pytest.approx(2 * 500 / 1000.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            fennel_alpha(4, 0, 10)

    def test_assigns_all_vertices(self, random_graph):
        state = PartitionState.for_graph(4, random_graph.num_vertices)
        FennelPartitioner(state, random_graph.num_vertices, random_graph.num_edges).ingest_all(
            stream_edges(random_graph, "dfs")
        )
        assert unassigned_vertices(random_graph, state) == []

    def test_capacity_respected(self, random_graph):
        state = PartitionState.for_graph(4, random_graph.num_vertices)
        FennelPartitioner(state, random_graph.num_vertices, random_graph.num_edges).ingest_all(
            stream_edges(random_graph, "random")
        )
        assert max(state.sizes()) <= state.capacity

    def test_prefers_neighbors_when_balanced(self):
        state = PartitionState(2, 100)
        f = FennelPartitioner(state, 10, 20)
        f.ingest(EdgeEvent(1, "a", 2, "b"))
        assert state.partition_of(1) == state.partition_of(2)

    def test_custom_alpha_override(self):
        state = PartitionState(2, 100)
        f = FennelPartitioner(state, 10, 20, alpha=3.5)
        assert f.alpha == 3.5


class TestMetrics:
    def build(self):
        from repro.graph.labelled_graph import LabelledGraph

        g = LabelledGraph.from_label_map(
            {1: "a", 2: "b", 3: "a", 4: "b"}, [(1, 2), (2, 3), (3, 4)]
        )
        state = PartitionState(2, 10)
        for v, p in [(1, 0), (2, 0), (3, 1), (4, 1)]:
            state.assign(v, p)
        return g, state

    def test_edge_cut(self):
        g, state = self.build()
        assert edge_cut(g, state) == 1  # only (2,3) crosses

    def test_cut_fraction(self):
        g, state = self.build()
        assert cut_fraction(g, state) == pytest.approx(1 / 3)

    def test_edge_cut_requires_full_assignment(self):
        g, _ = self.build()
        empty = PartitionState(2, 10)
        with pytest.raises(ValueError):
            edge_cut(g, empty)

    def test_imbalance_perfect(self):
        _, state = self.build()
        assert imbalance(state, 4) == pytest.approx(1.0)

    def test_communication_volume(self):
        g, state = self.build()
        # vertices 2 and 3 each see one remote partition.
        assert communication_volume(g, state) == 2

    def test_summary_keys(self):
        g, state = self.build()
        summary = partition_quality_summary(g, state)
        assert set(summary) == {
            "edge_cut",
            "cut_fraction",
            "imbalance",
            "communication_volume",
            "assigned_vertices",
        }


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500), k=st.integers(2, 6))
def test_property_all_partitioners_assign_everything(seed, k):
    g = make_random_labelled_graph(num_vertices=50, num_edges=100, seed=seed)
    events = list(stream_edges(g, "random", seed=seed))
    for respects_capacity, build in (
        (False, lambda s: HashPartitioner(s)),  # Hash is capacity-oblivious
        (True, lambda s: LDGPartitioner(s)),
        (True, lambda s: FennelPartitioner(s, g.num_vertices, g.num_edges)),
    ):
        state = PartitionState.for_graph(k, g.num_vertices)
        build(state).ingest_all(events)
        assert state.num_assigned == g.num_vertices
        if respects_capacity:
            assert max(state.sizes()) <= state.capacity
