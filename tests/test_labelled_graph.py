"""Unit tests for the labelled-graph substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.labelled_graph import LabelledGraph, normalize_edge


def build_triangle() -> LabelledGraph:
    g = LabelledGraph("triangle")
    g.add_edge(1, 2, "a", "b")
    g.add_edge(2, 3, None, "c")
    g.add_edge(3, 1)
    return g


class TestConstruction:
    def test_add_vertex_and_label(self):
        g = LabelledGraph()
        g.add_vertex(7, "x")
        assert g.has_vertex(7)
        assert g.label(7) == "x"
        assert g.num_vertices == 1

    def test_re_add_vertex_same_label_is_noop(self):
        g = LabelledGraph()
        g.add_vertex(1, "a")
        g.add_vertex(1, "a")
        assert g.num_vertices == 1

    def test_relabel_raises(self):
        g = LabelledGraph()
        g.add_vertex(1, "a")
        with pytest.raises(ValueError, match="already has label"):
            g.add_vertex(1, "b")

    def test_add_edge_with_inline_labels(self):
        g = LabelledGraph()
        assert g.add_edge(1, 2, "a", "b") is True
        assert g.has_edge(1, 2)
        assert g.has_edge(2, 1)
        assert g.num_edges == 1

    def test_add_duplicate_edge_returns_false(self):
        g = build_triangle()
        assert g.add_edge(1, 2) is False
        assert g.num_edges == 3

    def test_self_loop_rejected(self):
        g = LabelledGraph()
        g.add_vertex(1, "a")
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge(1, 1)

    def test_edge_requires_labels(self):
        g = LabelledGraph()
        with pytest.raises(KeyError, match="no label"):
            g.add_edge(1, 2)

    def test_from_edges(self):
        g = LabelledGraph.from_edges([(1, "a", 2, "b"), (2, "b", 3, "c")])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_from_label_map(self):
        g = LabelledGraph.from_label_map({1: "a", 2: "b"}, [(1, 2)])
        assert g.has_edge(1, 2)


class TestRemoval:
    def test_remove_edge(self):
        g = build_triangle()
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.num_edges == 2

    def test_remove_missing_edge_raises(self):
        g = build_triangle()
        with pytest.raises(KeyError):
            g.remove_edge(1, 99)

    def test_remove_vertex_drops_incident_edges(self):
        g = build_triangle()
        g.remove_vertex(2)
        assert not g.has_vertex(2)
        assert g.num_edges == 1
        assert g.has_edge(3, 1)

    def test_remove_missing_vertex_raises(self):
        g = build_triangle()
        with pytest.raises(KeyError):
            g.remove_vertex(42)


class TestQueries:
    def test_degree_and_neighbors(self):
        g = build_triangle()
        assert g.degree(1) == 2
        assert g.neighbors(1) == [2, 3]

    def test_edges_iterates_each_once_normalized(self):
        g = build_triangle()
        edges = list(g.edges())
        assert len(edges) == 3
        assert len(set(edges)) == 3
        for u, v in edges:
            assert (u, v) == normalize_edge(u, v)

    def test_label_set(self):
        g = build_triangle()
        assert g.label_set() == {"a", "b", "c"}

    def test_vertices_with_label(self):
        g = build_triangle()
        assert g.vertices_with_label("a") == [1]

    def test_contains_and_len(self):
        g = build_triangle()
        assert 1 in g
        assert 42 not in g
        assert len(g) == 3

    def test_degree_histogram(self):
        g = build_triangle()
        assert g.degree_histogram() == {2: 3}


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = build_triangle()
        h = g.copy()
        h.remove_edge(1, 2)
        assert g.has_edge(1, 2)
        assert not h.has_edge(1, 2)

    def test_subgraph_induced(self):
        g = build_triangle()
        s = g.subgraph([1, 2])
        assert s.num_vertices == 2
        assert s.has_edge(1, 2)
        assert s.num_edges == 1

    def test_edge_subgraph_not_induced(self):
        g = build_triangle()
        s = g.edge_subgraph([normalize_edge(1, 2)])
        assert s.num_vertices == 2
        assert s.num_edges == 1
        assert s.label(1) == "a"

    def test_connected_components(self):
        g = LabelledGraph.from_label_map(
            {1: "a", 2: "b", 3: "a", 4: "b"}, [(1, 2), (3, 4)]
        )
        comps = sorted(g.connected_components(), key=lambda c: min(c))
        assert comps == [{1, 2}, {3, 4}]
        assert not g.is_connected()

    def test_empty_graph_is_connected(self):
        assert LabelledGraph().is_connected()

    def test_triangle_is_connected(self):
        assert build_triangle().is_connected()


class TestNormalizeEdge:
    def test_order_independent(self):
        assert normalize_edge(2, 1) == normalize_edge(1, 2)

    def test_idempotent(self):
        e = normalize_edge(5, 3)
        assert normalize_edge(*e) == e


class TestNetworkxInterop:
    def test_round_trip_preserves_structure(self):
        g = build_triangle()
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 3
        assert nxg.number_of_edges() == 3
        assert nxg.nodes[1]["label"] == "a"


# ----------------------------------------------------------------------
# Property: the list-backed adjacency against a dict-of-sets model.
# ----------------------------------------------------------------------
_VERTICES = range(6)
_vertex = st.sampled_from(_VERTICES)
_operation = st.one_of(
    st.tuples(st.just("add"), _vertex, _vertex),
    st.tuples(st.just("remove"), _vertex, _vertex),
    st.tuples(st.just("remove_vertex"), _vertex),
    st.tuples(st.just("copy")),
    st.tuples(st.just("subgraph"), st.frozensets(_vertex)),
)


class _Model:
    """Neighbour sets plus the step at which each present edge was added:
    a vertex's neighbours in first-insertion order are its set sorted by
    that step."""

    def __init__(self):
        self.adj = {}
        self.added = {}
        self.steps = 0

    def add(self, u, v):
        self.adj.setdefault(u, set())
        self.adj.setdefault(v, set())
        if v in self.adj[u]:
            return False
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.added[frozenset((u, v))] = self.steps
        self.steps += 1
        return True

    def remove(self, u, v):
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        del self.added[frozenset((u, v))]

    def remove_vertex(self, v):
        for w in list(self.adj[v]):
            self.remove(v, w)
        del self.adj[v]

    def restrict(self, keep):
        self.adj = {v: nbrs & keep for v, nbrs in self.adj.items() if v in keep}
        self.added = {e: step for e, step in self.added.items() if e <= keep}

    def in_order(self, v):
        return sorted(self.adj[v], key=lambda w: self.added[frozenset((v, w))])


def _assert_agrees(g, model):
    assert set(g.vertices()) == set(model.adj)
    for v in model.adj:
        nbrs = g.neighbors(v)
        assert len(nbrs) == len(set(nbrs)) == g.degree(v)
        assert set(nbrs) == model.adj[v]
        assert nbrs == model.in_order(v)
    for u in _VERTICES:
        for v in _VERTICES:
            assert g.has_edge(u, v) == (v in model.adj.get(u, ()))
    expected = {normalize_edge(u, v) for u, nbrs in model.adj.items() for v in nbrs}
    edges = list(g.edges())
    assert len(edges) == len(expected) == g.num_edges
    assert set(edges) == expected
    assert all(e == normalize_edge(*e) for e in edges)


@settings(max_examples=200, deadline=None)
@given(
    edges=st.lists(st.tuples(_vertex, _vertex), min_size=4, max_size=24),
    operations=st.lists(_operation, max_size=40),
)
def test_adjacency_lists_match_a_set_model(edges, operations):
    # A run of adds first, so that the mixed operations meet vertices with
    # several neighbours (and duplicate or reversed edges) to keep in order.
    g, model = LabelledGraph(), _Model()
    for op, *args in [("add", u, v) for u, v in edges] + operations:
        if op == "add":
            u, v = args
            if u == v:
                with pytest.raises(ValueError, match="self-loop"):
                    g.add_edge(u, v, "ab"[u % 2], "ab"[v % 2])
            else:
                assert g.add_edge(u, v, "ab"[u % 2], "ab"[v % 2]) == model.add(u, v)
        elif op == "remove":
            u, v = args
            if v in model.adj.get(u, ()):
                g.remove_edge(u, v)
                model.remove(u, v)
            else:
                with pytest.raises(KeyError):
                    g.remove_edge(u, v)
        elif op == "remove_vertex":
            (v,) = args
            if v in model.adj:
                g.remove_vertex(v)
                model.remove_vertex(v)
            else:
                with pytest.raises(KeyError):
                    g.remove_vertex(v)
        elif op == "copy":
            g = g.copy()
        else:
            keep = args[0] & set(model.adj)
            g = g.subgraph(keep)
            model.restrict(keep)
        _assert_agrees(g, model)
