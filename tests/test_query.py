"""Tests for patterns, workloads, isomorphism search and the ipt executor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.figure1 import (
    MIN_CUT_PARTITIONING,
    WORKLOAD_AWARE_PARTITIONING,
)
from repro.graph.labelled_graph import LabelledGraph
from repro.partitioning.state import PartitionState
from repro.query.executor import WorkloadExecutor
from repro.query.isomorphism import (
    count_embeddings,
    embedding_edges,
    find_embeddings,
    is_valid_embedding,
)
from repro.query.pattern import (
    PatternGraph,
    cycle_pattern,
    edge_pattern,
    path_pattern,
    star_pattern,
)
from repro.query.workload import Workload

from helpers import make_random_labelled_graph


class TestPatternConstructors:
    def test_edge_pattern(self):
        q = edge_pattern("a", "b")
        assert q.num_vertices == 2
        assert q.num_edges == 1
        assert q.label_sequence() == ["a", "b"]

    def test_path_pattern(self):
        q = path_pattern(["a", "b", "c"])
        assert q.num_edges == 2
        assert q.is_connected()

    def test_path_needs_two_labels(self):
        with pytest.raises(ValueError):
            path_pattern(["a"])

    def test_cycle_pattern(self):
        q = cycle_pattern(["a", "b", "a", "b"])
        assert q.num_edges == 4
        assert all(q.degree(v) == 2 for v in q.vertices())

    def test_cycle_needs_three(self):
        with pytest.raises(ValueError):
            cycle_pattern(["a", "b"])

    def test_star_pattern(self):
        q = star_pattern("hub", ["x", "y", "z"])
        assert q.num_edges == 3
        assert q.degree(0) == 3

    def test_star_needs_leaves(self):
        with pytest.raises(ValueError):
            star_pattern("hub", [])

    def test_validate_rejects_disconnected(self):
        q = PatternGraph("bad")
        q.add_edge(1, 2, "a", "b")
        q.add_edge(3, 4, "a", "b")
        with pytest.raises(ValueError, match="connected"):
            q.validate()

    def test_validate_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one edge"):
            PatternGraph("empty").validate()


class TestWorkload:
    def test_frequencies_normalised(self):
        wl = Workload([(edge_pattern("a", "b"), 3), (edge_pattern("b", "c"), 1)])
        assert [q.frequency for q in wl] == [0.75, 0.25]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Workload([])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Workload([(edge_pattern("a", "b"), 0)])

    def test_label_set(self, fig1_workload):
        assert fig1_workload.label_set() == {"a", "b", "c", "d"}

    def test_max_pattern_edges(self, fig1_workload):
        assert fig1_workload.max_pattern_edges() == 4

    def test_indexing_and_len(self, fig1_workload):
        assert len(fig1_workload) == 3
        assert fig1_workload[0].pattern.name == "q1"

    def test_reweighted(self, fig1_workload):
        heavier_q3 = fig1_workload.reweighted({"q3": 0.8, "q1": 0.1, "q2": 0.1})
        assert heavier_q3.frequencies()["q3"] == pytest.approx(0.8)
        # original untouched
        assert fig1_workload.frequencies()["q3"] == pytest.approx(0.1)


class TestIsomorphism:
    def test_q2_matches_in_figure1(self, fig1_graph):
        """Sec. 1: q2 = a-b-c matches {(1,2),(2,3)} and {(6,2),(2,3)}."""
        q2 = path_pattern(["a", "b", "c"], name="q2")
        found = {
            frozenset(embedding_edges(q2, e))
            for e in find_embeddings(fig1_graph, q2)
        }
        assert found == {
            frozenset({(1, 2), (2, 3)}),
            frozenset({(2, 6), (2, 3)}),
        }

    def test_no_q1_matches_in_figure1(self, fig1_graph):
        q1 = cycle_pattern(["a", "b", "a", "b"], name="q1")
        assert count_embeddings(fig1_graph, q1) == 0

    def test_labels_enforced(self):
        g = LabelledGraph.from_edges([(1, "a", 2, "a")])
        assert count_embeddings(g, edge_pattern("a", "b")) == 0
        # a-a edge matched from both directions: 2 embeddings.
        assert count_embeddings(g, edge_pattern("a", "a")) == 2

    def test_injectivity(self):
        """A path a-b-a needs two distinct 'a' vertices."""
        g = LabelledGraph.from_edges([(1, "a", 2, "b")])
        assert count_embeddings(g, path_pattern(["a", "b", "a"])) == 0

    def test_non_induced_semantics(self):
        """Extra edges among matched vertices don't disqualify a match."""
        g = LabelledGraph.from_edges(
            [(1, "a", 2, "b"), (2, "b", 3, "c"), (1, "a", 3, "c")]
        )
        q = path_pattern(["a", "b", "c"])
        assert count_embeddings(g, q) == 1

    def test_limit_caps_enumeration(self):
        g = LabelledGraph()
        for i in range(10):
            g.add_edge(("hub",), ("leaf", i), "h", "x")
        q = edge_pattern("h", "x")
        assert count_embeddings(g, q) == 10
        assert count_embeddings(g, q, limit=4) == 4

    def test_embeddings_are_valid(self, fig1_graph, fig1_workload):
        for entry in fig1_workload:
            for emb in find_embeddings(fig1_graph, entry.pattern):
                assert is_valid_embedding(fig1_graph, entry.pattern, emb)

    def test_agrees_with_networkx(self):
        """Embedding counts match networkx's subgraph isomorphism counts."""
        from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

        g = make_random_labelled_graph(num_vertices=25, num_edges=50, seed=13)
        for pattern in (
            path_pattern(["a", "b"]),
            path_pattern(["a", "b", "c"]),
            star_pattern("b", ["a", "c"]),
        ):
            ours = count_embeddings(g, pattern)
            matcher = GraphMatcher(
                g.to_networkx(),
                pattern.to_networkx(),
                node_match=categorical_node_match("label", None),
            )
            # networkx counts mappings pattern->subgraph; monomorphisms
            # match our non-induced semantics.
            theirs = sum(1 for _ in matcher.subgraph_monomorphisms_iter())
            assert ours == theirs


class TestExecutor:
    def test_figure1_motivation(self, fig1_graph, fig1_workload):
        """The paper's Sec. 1 argument, end to end: the min-cut-optimal
        bisection pays 1 ipt per q2 execution; the workload-aware one pays
        none, despite a strictly worse edge-cut."""
        executor = WorkloadExecutor(fig1_graph, fig1_workload)
        min_cut = PartitionState(2, 100)
        for v, p in MIN_CUT_PARTITIONING.items():
            min_cut.assign(v, p)
        aware = PartitionState(2, 100)
        for v, p in WORKLOAD_AWARE_PARTITIONING.items():
            aware.assign(v, p)

        r_min = executor.execute(min_cut, "min-cut")
        r_aware = executor.execute(aware, "aware")
        q2_min = next(q for q in r_min.queries if q.name == "q2")
        q2_aware = next(q for q in r_aware.queries if q.name == "q2")
        assert q2_min.cut_traversals == 2  # both matches cross once
        assert q2_aware.cut_traversals == 0
        assert r_aware.weighted_ipt < r_min.weighted_ipt

        from repro.partitioning.metrics import edge_cut

        assert edge_cut(fig1_graph, aware) > edge_cut(fig1_graph, min_cut)

    def test_relative_to_baseline(self, fig1_graph, fig1_workload):
        executor = WorkloadExecutor(fig1_graph, fig1_workload)
        state = PartitionState(2, 100)
        for v, p in MIN_CUT_PARTITIONING.items():
            state.assign(v, p)
        report = executor.execute(state)
        assert report.relative_to(report) == pytest.approx(100.0)

    def test_zero_ipt_when_single_partition(self, fig1_graph, fig1_workload):
        executor = WorkloadExecutor(fig1_graph, fig1_workload)
        state = PartitionState(1, 100)
        for v in fig1_graph.vertices():
            state.assign(v, 0)
        report = executor.execute(state)
        assert report.weighted_ipt == 0.0
        assert report.ipt_fraction == 0.0

    def test_unassigned_vertex_raises(self, fig1_graph, fig1_workload):
        executor = WorkloadExecutor(fig1_graph, fig1_workload)
        with pytest.raises(ValueError, match="unassigned"):
            executor.execute(PartitionState(2, 100))

    def test_summary(self, fig1_graph, fig1_workload):
        executor = WorkloadExecutor(fig1_graph, fig1_workload)
        assert executor.summary() == {"q1": 0, "q2": 2, "q3": 4}

    def test_capped_flag(self):
        g = LabelledGraph()
        for i in range(10):
            g.add_edge(("hub",), ("leaf", i), "h", "x")
        wl = Workload([(edge_pattern("h", "x"), 1.0)])
        state = PartitionState(1, 100)
        for v in g.vertices():
            state.assign(v, 0)
        report = WorkloadExecutor(g, wl, embedding_limit=5).execute(state)
        assert report.queries[0].capped
        assert report.queries[0].embeddings == 5
        # The report-level roll-up published tables surface (bench rows,
        # partition_cli --stats): truncation must not pass silently.
        assert report.capped
        assert report.capped_queries == [wl[0].pattern.name]
        # A limit equal to the embedding count truncates nothing.
        report = WorkloadExecutor(g, wl, embedding_limit=10).execute(state)
        assert not report.queries[0].capped
        assert report.queries[0].embeddings == 10

    def test_capped_rollup_false_when_unbound(self, fig1_graph, fig1_workload):
        executor = WorkloadExecutor(fig1_graph, fig1_workload, embedding_limit=None)
        state = PartitionState(1, 100)
        for v in fig1_graph.vertices():
            state.assign(v, 0)
        report = executor.execute(state)
        assert not report.capped
        assert report.capped_queries == []


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 300))
def test_property_ipt_bounded_by_traversals(seed):
    g = make_random_labelled_graph(num_vertices=40, num_edges=80, seed=seed)
    wl = Workload([(path_pattern(["a", "b", "c"]), 1.0)])
    executor = WorkloadExecutor(g, wl)
    state = PartitionState(3, 100)
    import random as _r

    rng = _r.Random(seed)
    for v in g.vertices():
        state.assign(v, rng.randrange(3))
    report = executor.execute(state)
    q = report.queries[0]
    assert 0 <= q.cut_traversals <= q.traversals
    assert q.traversals == 2 * q.embeddings
