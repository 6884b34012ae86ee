"""Cross-module property tests for the reproduction's key invariants.

The strongest one checks Alg. 2's completeness: every motif-matching
sub-graph present in the window is discovered by the incremental matcher,
verified against brute-force enumeration of all connected edge sub-graphs.
"""

import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.core.loom import LoomPartitioner
from repro.core.matching import StreamMatcher
from repro.core.motifs import MotifIndex
from repro.core.signature import SignatureScheme
from repro.core.tpstry import TPSTry
from repro.graph.labelled_graph import LabelledGraph, normalize_edge
from repro.graph.stream import EdgeEvent, stream_edges
from repro.partitioning.state import PartitionState
from repro.query.pattern import path_pattern
from repro.query.workload import Workload

from helpers import make_random_labelled_graph


def _fig5_workload() -> Workload:
    return Workload(
        [
            (path_pattern(["a", "b", "a", "b"], name="abab"), 0.5),
            (path_pattern(["a", "b", "c"], name="abc"), 0.5),
        ],
        name="fig5",
    )


def _fig1_workload() -> Workload:
    from repro.datasets.figure1 import figure1_workload

    return figure1_workload()


def brute_force_motif_subgraphs(graph: LabelledGraph, index: MotifIndex):
    """All connected edge-subsets of ``graph`` whose signature is a motif."""
    edges = sorted(graph.edges(), key=repr)
    scheme = index.scheme
    found = set()
    for size in range(1, index.max_motif_edges + 1):
        for combo in combinations(edges, size):
            sub = graph.edge_subgraph(combo)
            if not sub.is_connected():
                continue
            node = index.trie.node_for_signature(scheme.graph_signature(sub))
            if node is not None and index.is_motif(node):
                found.add((frozenset(combo), node.node_id))
    return found


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 400), n_edges=st.integers(3, 10))
def test_property_matcher_is_complete(seed, n_edges):
    """The incremental matcher finds exactly the motif matches that exist
    in the window (no caps, window larger than the stream)."""
    rng = random.Random(seed)
    labels = ["a", "b", "c"]
    g = LabelledGraph()
    for v in range(n_edges + 1):
        g.add_vertex(v, rng.choice(labels))
    for v in range(1, n_edges + 1):
        g.add_edge(rng.randrange(v), v)

    trie = TPSTry.from_workload(_fig5_workload())
    index = MotifIndex(trie, 0.4)
    matcher = StreamMatcher(index.compile(), window_size=1000, max_matches_per_vertex=10_000)
    for u, v in sorted(g.edges(), key=repr):
        matcher.offer(EdgeEvent(u, g.label(u), v, g.label(v)))

    window_graph = matcher.window.to_labelled_graph()
    expected = brute_force_motif_subgraphs(window_graph, index)
    actual = {
        (
            frozenset(normalize_edge(u, v) for u, v in matcher.resolve_edges(m)),
            matcher.resolve_node(m).node_id,
        )
        for m in matcher.matchlist.all_matches()
    }
    assert actual == expected


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 300), k=st.integers(2, 5), window=st.integers(2, 40))
def test_property_loom_total_and_balanced(seed, k, window):
    """Loom assigns every streamed vertex exactly once, within capacity,
    for any window size, k and stream order."""
    g = make_random_labelled_graph(num_vertices=45, num_edges=90, seed=seed)
    order = ["bfs", "dfs", "random"][seed % 3]
    state = PartitionState.for_graph(k, g.num_vertices)
    loom = LoomPartitioner(state, _fig1_workload(), window_size=window, seed=seed)
    loom.ingest_all(stream_edges(g, order, seed=seed))
    assert state.num_assigned == g.num_vertices
    assert loom.window_occupancy == 0
    assert max(state.sizes()) <= state.capacity
    sizes = state.sizes()
    assert sum(sizes) == g.num_vertices


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 50), min_size=2, max_size=8),
)
def test_property_ration_bounds(sizes):
    """l(Si) always lies in [0, 1], is 1 for the smallest partition and 0
    for full partitions."""
    from repro.core.allocation import EqualOpportunism

    capacity = max(max(sizes) + 1, 10)
    state = PartitionState(len(sizes), capacity)
    for i, size in enumerate(sizes):
        for j in range(size):
            state.assign((i, j), i)
    eo = EqualOpportunism(state)
    rations = [eo.ration(i) for i in range(len(sizes))]
    assert all(0.0 <= r <= 1.0 for r in rations)
    smallest = min(range(len(sizes)), key=lambda i: sizes[i])
    assert rations[smallest] == 1.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500))
def test_property_trie_independent_of_query_order(seed):
    """Adding workload queries in any order yields the same node set and
    supports (the DAG merge is order-insensitive)."""
    patterns = [
        (path_pattern(["a", "b", "a"], name="p1"), 0.5),
        (path_pattern(["a", "b", "c"], name="p2"), 0.3),
        (path_pattern(["b", "c", "b"], name="p3"), 0.2),
    ]
    shuffled = patterns[:]
    random.Random(seed).shuffle(shuffled)

    scheme_a = SignatureScheme(["a", "b", "c"], seed=7)
    scheme_b = SignatureScheme(["a", "b", "c"], seed=7)
    trie_a, trie_b = TPSTry(scheme_a), TPSTry(scheme_b)
    for pattern, freq in patterns:
        trie_a.add_query(pattern, freq)
    for pattern, freq in shuffled:
        trie_b.add_query(pattern, freq)

    support_a = {n.signature.key: round(n.support, 9) for n in trie_a.nodes()}
    support_b = {n.signature.key: round(n.support, 9) for n in trie_b.nodes()}
    assert support_a == support_b


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 200))
def test_property_executor_invariant_under_stream_order(seed):
    """ipt depends only on the final assignment, never on how the
    partitioner saw the stream — executing twice must agree."""
    from repro.query.executor import WorkloadExecutor

    g = make_random_labelled_graph(num_vertices=40, num_edges=80, seed=seed)
    wl = Workload([(path_pattern(["a", "b", "c"]), 1.0)])
    state = PartitionState.for_graph(3, g.num_vertices)
    rng = random.Random(seed)
    for v in g.vertices():
        state.assign(v, rng.randrange(3))
    a = WorkloadExecutor(g, wl).execute(state).weighted_ipt
    b = WorkloadExecutor(g, wl).execute(state).weighted_ipt
    assert a == b
