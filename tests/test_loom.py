"""Tests for the composed Loom partitioner."""

import pytest

from repro.core.allocation import ALPHA
from repro.core.loom import LoomPartitioner
from repro.datasets.registry import load_dataset
from repro.graph.stream import EdgeEvent, stream_edges
from repro.partitioning.state import PartitionState

from helpers import make_random_labelled_graph


def make_loom(workload, k=2, n=100, **kwargs) -> LoomPartitioner:
    state = PartitionState.for_graph(k, n)
    defaults = dict(window_size=10, support_threshold=0.4)
    defaults.update(kwargs)
    return LoomPartitioner(state, workload, **defaults)


class TestConstruction:
    def test_builds_trie_and_index(self, fig1_workload):
        loom = make_loom(fig1_workload)
        summary = loom.motif_summary()
        assert summary["trie_nodes"] == 10
        assert summary["motifs"] == 3
        assert summary["single_edge_motifs"] == 2
        assert summary["max_motif_edges"] == 2

    def test_defaults_match_paper(self, fig1_workload):
        state = PartitionState.for_graph(2, 100)
        loom = LoomPartitioner(state, fig1_workload)
        assert loom.matcher.window.capacity == 10_000
        assert loom.index.threshold == pytest.approx(0.4)
        assert loom.scheme.p == 251
        assert ALPHA == pytest.approx(2.0 / 3.0)


class TestStreamingBehaviour:
    def test_non_motif_edge_assigned_immediately(self, fig1_workload):
        """A non-motif edge never enters the window.  Its endpoint whose
        label is in no motif (``d``) is placed at once; a motif-label
        endpoint (``c``) is parked — an auction claims it if a motif edge
        reaches it, else LDG places it after exactly ``capacity``
        gate-passing edges."""
        capacity = 4
        loom = make_loom(fig1_workload, window_size=capacity)
        loom.ingest(EdgeEvent(1, "c", 2, "d"))
        loom.ingest(EdgeEvent(3, "c", 4, "d"))
        assert loom.stats["immediate_assignments"] == 2
        assert loom.window_occupancy == 0
        assert loom.state.is_assigned(2) and loom.state.is_assigned(4)
        assert not loom.state.is_assigned(1) and not loom.state.is_assigned(3)
        assert loom.parked_vertices() == [1, 3]
        assert loom.stats["deferred_vertices"] == loom.stats["deferred_peak"] == 2

        # A motif edge reaches 3: it is the window's now, and stays queued
        # until its deadline finds it there.  Seeing 1 on another non-motif
        # edge neither re-parks it nor restarts its wait.
        loom.ingest(EdgeEvent(10, "b", 3, "c"))
        loom.ingest(EdgeEvent(1, "c", 5, "d"))
        assert loom.parked_vertices() == [1]
        assert loom.stats["deferred_vertices"] == 2

        for i in range(capacity - 2):  # gate-passing edges 2 .. capacity-1
            loom.ingest(EdgeEvent(20 + 2 * i, "a", 21 + 2 * i, "b"))
        assert not loom.state.is_assigned(1)
        assert loom.stats["deferred_claimed"] == loom.stats["deferred_aged_out"] == 0
        loom.ingest(EdgeEvent(40, "a", 41, "b"))  # the capacity-th: deadline
        assert loom.state.is_assigned(1)
        assert loom.state.partition_of(1) == loom.state.partition_of(2)  # LDG
        assert not loom.state.is_assigned(3)  # left to its cluster's auction
        assert loom.stats["deferred_claimed"] == loom.stats["deferred_aged_out"] == 1
        assert loom.parked_vertices() == []

        loom.finalize()
        assert loom.state.partition_of(3) == loom.state.partition_of(10)

    def test_finalize_places_what_is_still_parked(self, fig1_workload):
        loom = make_loom(fig1_workload)
        loom.ingest(EdgeEvent(1, "c", 2, "d"))
        loom.finalize()
        assert loom.state.is_assigned(1)
        assert loom.parked_vertices() == []
        assert loom.stats["deferred_aged_out"] == 1

    def test_deferral_switch_off_places_both_endpoints_at_once(self, fig1_workload):
        loom = make_loom(fig1_workload, defer_motif_vertices=False)
        loom.ingest(EdgeEvent(1, "c", 2, "d"))
        assert loom.state.is_assigned(1) and loom.state.is_assigned(2)
        assert loom.stats["deferred_vertices"] == 0

    def test_motif_edge_deferred_to_window(self, fig1_workload):
        loom = make_loom(fig1_workload)
        loom.ingest(EdgeEvent(1, "a", 2, "b"))
        assert not loom.state.is_assigned(1)
        assert loom.window_occupancy == 1

    def test_window_vertex_not_pinned_by_non_motif_edge(self, fig1_workload):
        """A non-motif edge must not pre-empt the window's jurisdiction
        over a vertex it currently holds."""
        loom = make_loom(fig1_workload)
        loom.ingest(EdgeEvent(2, "b", 3, "c"))  # motif edge: 2, 3 in window
        loom.ingest(EdgeEvent(3, "c", 4, "d"))  # non-motif edge touching 3
        assert not loom.state.is_assigned(3)
        assert loom.state.is_assigned(4)
        assert loom.stats["deferred_vertices"] == 0  # held by the window, not parked

    def test_overflow_triggers_eviction(self, fig1_workload):
        loom = make_loom(fig1_workload, window_size=2)
        loom.ingest(EdgeEvent(1, "a", 2, "b"))
        loom.ingest(EdgeEvent(3, "a", 4, "b"))
        assert loom.stats["evictions"] == 0
        loom.ingest(EdgeEvent(5, "a", 6, "b"))
        assert loom.stats["evictions"] >= 1
        assert loom.state.is_assigned(1)
        assert loom.state.is_assigned(2)

    def test_finalize_drains_window(self, fig1_workload):
        loom = make_loom(fig1_workload, window_size=50)
        loom.ingest(EdgeEvent(1, "a", 2, "b"))
        loom.ingest(EdgeEvent(2, "b", 3, "c"))
        loom.finalize()
        assert loom.window_occupancy == 0
        for v in (1, 2, 3):
            assert loom.state.is_assigned(v)

    def test_duplicate_edges_reach_ldg_once(self, fig1_workload, monkeypatch):
        """The seen adjacency records an edge each time it arrives, so a
        raw stream that repeats an edge repeats a neighbour in a list; LDG
        must still count that neighbour once.  Covered: a parked
        motif-label vertex whose wait ends (``_release_due``) and a window
        cluster that takes the zero-bid fallback (``_ldg_cluster_choice``).
        Placements equal those of the stream without the repeats."""
        import repro.core.loom as loom_module

        real = loom_module.ldg_choose_ids
        calls = []

        def spy(state, neighbor_ids):
            ids = list(neighbor_ids)
            calls.append(ids)
            return real(state, ids)

        monkeypatch.setattr(loom_module, "ldg_choose_ids", spy)
        events = [
            EdgeEvent(3, "c", 4, "d"),  # non-motif: 4 placed, 3 parked
            EdgeEvent(3, "c", 4, "d"),
            EdgeEvent(3, "c", 5, "d"),
            EdgeEvent(1, "a", 9, "d"),  # non-motif: 9 placed, 1 parked
            EdgeEvent(1, "a", 9, "d"),
            EdgeEvent(1, "a", 2, "b"),  # motif: the window holds 1 and 2
        ]
        loom = make_loom(fig1_workload)
        loom.ingest_batch(events)
        id_of = loom.state.interner.id_of
        assert loom._adj[id_of(3)] == [id_of(4), id_of(4), id_of(5)]
        assert loom._adj[id_of(1)] == [id_of(9), id_of(9), id_of(2)]
        calls.clear()
        loom.finalize()
        # The cluster {1, 2} has nothing placed: zero bids, LDG over {9};
        # then 3's wait ends unclaimed: LDG over {4, 5}.
        assert loom.stats["fallback_allocations"] == 1
        assert loom.stats["deferred_aged_out"] == 1
        assert len(calls) == 2
        assert calls[0] == [id_of(9)]
        assert sorted(calls[1]) == [id_of(4), id_of(5)]

        monkeypatch.setattr(loom_module, "ldg_choose_ids", real)
        simple = make_loom(fig1_workload)
        simple.ingest_all([e for i, e in enumerate(events) if i not in (1, 4)])
        assert loom.state.assignment() == simple.state.assignment()

    def test_motif_cluster_lands_in_one_partition(self, fig1_workload):
        """An a-b-c motif match should be co-located on eviction."""
        loom = make_loom(fig1_workload, window_size=50)
        loom.ingest(EdgeEvent(1, "a", 2, "b"))
        loom.ingest(EdgeEvent(2, "b", 3, "c"))
        loom.finalize()
        assert (
            loom.state.partition_of(1)
            == loom.state.partition_of(2)
            == loom.state.partition_of(3)
        )


class TestFullStream:
    @pytest.mark.parametrize("order", ["bfs", "dfs", "random"])
    def test_every_vertex_assigned(self, fig1_workload, order):
        g = make_random_labelled_graph(num_vertices=80, num_edges=160, seed=11)
        state = PartitionState.for_graph(4, g.num_vertices)
        loom = LoomPartitioner(state, fig1_workload, window_size=20)
        loom.ingest_all(stream_edges(g, order, seed=2))
        assert state.num_assigned == g.num_vertices
        assert loom.window_occupancy == 0

    def test_balance_respects_capacity(self, fig1_workload):
        g = make_random_labelled_graph(num_vertices=120, num_edges=260, seed=3)
        state = PartitionState.for_graph(4, g.num_vertices)
        loom = LoomPartitioner(state, fig1_workload, window_size=30)
        loom.ingest_all(stream_edges(g, "bfs", seed=0))
        assert max(state.sizes()) <= state.capacity

    def test_deterministic_given_seed(self, fig1_workload):
        g = make_random_labelled_graph(num_vertices=60, num_edges=120, seed=5)
        events = list(stream_edges(g, "random", seed=7))
        assignments = []
        for _ in range(2):
            state = PartitionState.for_graph(4, g.num_vertices)
            loom = LoomPartitioner(state, fig1_workload, window_size=15, seed=3)
            loom.ingest_all(events)
            assignments.append(state.assignment())
        assert assignments[0] == assignments[1]

    def test_adjacency_is_kept_for_motif_label_vertices_only_and_complete(self):
        """``_adj`` holds a vertex iff its label occurs in a motif — a
        vertex of any other label is placed at its first edge and never
        asked about again — and what it holds is the vertex's whole seen
        neighbourhood, non-motif neighbours included (the zero-bid
        fallback scores all of it).  Each list
        holds a neighbour once per edge, so on a simple graph's stream no
        list repeats an id."""
        dataset = load_dataset("musicbrainz", 600, seed=2)
        graph = dataset.graph
        state = PartitionState.for_graph(4, graph.num_vertices)
        loom = LoomPartitioner(state, dataset.workload, window_size=100)
        loom.ingest_all(stream_edges(graph, "bfs", seed=2))
        motif_labels = loom.plan.motif_labels
        assert motif_labels < set(graph.label(v) for v in graph.vertices())
        id_of = state.interner.id_of
        expected = {
            id_of(v): {id_of(w) for w in graph.neighbors(v)}
            for v in graph.vertices()
            if graph.label(v) in motif_labels and graph.degree(v)
        }
        assert {vid: set(nbrs) for vid, nbrs in loom._adj.items()} == expected
        assert all(len(nbrs) == len(set(nbrs)) for nbrs in loom._adj.values())
        assert any(
            graph.label(state.interner.vertex(w)) not in motif_labels
            for nbrs in loom._adj.values()
            for w in nbrs
        )
        assert state.num_assigned == graph.num_vertices

    def test_ablation_flags_accepted(self, fig1_workload):
        g = make_random_labelled_graph(num_vertices=40, num_edges=80, seed=9)
        for kwargs in (
            {"max_matches_per_vertex": 2},
            {"defer_motif_vertices": False},
        ):
            state = PartitionState.for_graph(2, g.num_vertices)
            loom = LoomPartitioner(state, fig1_workload, window_size=10, **kwargs)
            loom.ingest_all(stream_edges(g, "bfs", seed=0))
            assert state.num_assigned == g.num_vertices
