"""Tests for stream motif matching (Sec. 3, Alg. 2), anchored on Fig. 5.

The matcher runs on interned ids; tests translate through
:meth:`StreamMatcher.edge_key` / ``resolve_*`` at the boundary.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    BENCH_BATCH_EDGES,
    bench_loom_input,
    make_random_labelled_graph,
    new_bench_loom,
    random_path_workload,
)
from repro.core.matching import Match, MatchList, StreamMatcher
from repro.core.motifs import MotifIndex
from repro.core.tpstry import TPSTry
from repro.core.window import LabelConflictError
from repro.graph.interning import pack_edge
from repro.graph.stream import EdgeEvent, batched, stream_edges


def build_matcher(workload, window=100, **kwargs) -> StreamMatcher:
    trie = TPSTry.from_workload(workload)
    return StreamMatcher(MotifIndex(trie, 0.4).compile(), window, **kwargs)


def ek(matcher: StreamMatcher, u, v) -> int:
    """The packed key of the edge {u, v} as this matcher interned it."""
    key = matcher.edge_key(u, v)
    assert key is not None, f"edge {u}-{v} never seen by matcher"
    return key


def match_shapes(matcher: StreamMatcher, vertex):
    """The {(edge-set, motif-label-multiset)} view of matchList[vertex].

    Matches carry plan state ids; the exemplar is reached through the
    plan's debug boundary (``resolve_node``)."""
    vid = matcher.interner.id_of(vertex)
    if vid is None:
        return set()
    return {
        (
            frozenset(m.edges),  # matches carry canonical sorted tuples
            tuple(sorted(matcher.resolve_node(m).exemplar.labels().values())),
        )
        for m in matcher.matchlist.matches_at(vid)
    }


# Fig. 5's stream: vertices 1a 2b 3a 4b 5c, edges arriving e1..e5.
E1 = EdgeEvent(1, "a", 2, "b")
E2 = EdgeEvent(3, "a", 4, "b")
E3 = EdgeEvent(4, "b", 5, "c")
E4 = EdgeEvent(2, "b", 5, "c")
E5 = EdgeEvent(2, "b", 3, "a")


class TestFigure5Scenario:
    def test_single_edge_matches(self, fig5_workload):
        m = build_matcher(fig5_workload)
        assert m.offer(E1)
        e1 = ek(m, 1, 2)
        assert match_shapes(m, 1) == {(frozenset([e1]), ("a", "b"))}
        assert match_shapes(m, 2) == {(frozenset([e1]), ("a", "b"))}

    def test_extension_creates_abc_match(self, fig5_workload):
        """Adding e3 to e2 forms the a-b-c match (the paper's walkthrough)."""
        m = build_matcher(fig5_workload)
        m.offer(E1)
        m.offer(E2)
        m.offer(E3)
        expected = (frozenset([ek(m, 3, 4), ek(m, 4, 5)]), ("a", "b", "c"))
        assert expected in match_shapes(m, 3)
        assert expected in match_shapes(m, 4)
        assert expected in match_shapes(m, 5)

    def test_e4_forms_second_abc_match(self, fig5_workload):
        m = build_matcher(fig5_workload)
        for e in (E1, E2, E3, E4):
            m.offer(e)
        expected = (frozenset([ek(m, 1, 2), ek(m, 2, 5)]), ("a", "b", "c"))
        assert expected in match_shapes(m, 1)
        assert expected in match_shapes(m, 5)

    def test_e5_forms_aba_bab_and_abab(self, fig5_workload):
        """e5 = (2,3) creates m4 = a-b-a, m5 = b-a-b and, through a pair
        join with the existing ⟨e2, m1⟩, the m6 = a-b-a-b match."""
        m = build_matcher(fig5_workload)
        for e in (E1, E2, E3, E4, E5):
            m.offer(e)
        e1, e2, e5 = ek(m, 1, 2), ek(m, 3, 4), ek(m, 2, 3)
        shapes2 = match_shapes(m, 2)
        assert (frozenset([e1, e5]), ("a", "a", "b")) in shapes2
        assert (frozenset([e2, e5]), ("a", "b", "b")) in shapes2
        abab = (frozenset([e1, e2, e5]), ("a", "a", "b", "b"))
        for vertex in (1, 2, 3, 4):
            assert abab in match_shapes(m, vertex)
        assert m.stats.pair_joins >= 1

    def test_eviction_order_and_me(self, fig5_workload):
        m = build_matcher(fig5_workload)
        for e in (E1, E2, E3, E4, E5):
            m.offer(e)
        eviction = m.next_eviction()
        assert eviction.event is E1
        assert eviction.ekey == ek(m, 1, 2)
        # Every match in Me contains the evicted edge.
        assert all(eviction.ekey in match.edges for match in eviction.matches)
        # Sorted by support, descending; the single-edge match leads.
        supports = [match.support for match in eviction.matches]
        assert supports == sorted(supports, reverse=True)
        assert eviction.matches[0].edges == (eviction.ekey,)


class TestGate:
    def test_non_motif_edge_bypasses_window(self, fig1_workload):
        m = build_matcher(fig1_workload)
        assert not m.offer(EdgeEvent(1, "c", 2, "d"))  # c-d: 10% support
        assert m.pending() == 0
        assert m.stats.edges_bypassed == 1

    def test_unknown_labels_bypass(self, fig1_workload):
        m = build_matcher(fig1_workload)
        assert not m.offer(EdgeEvent(1, "z", 2, "z"))

    def test_motif_edge_enters_window(self, fig1_workload):
        m = build_matcher(fig1_workload)
        assert m.offer(EdgeEvent(1, "a", 2, "b"))
        assert m.pending() == 1

    def test_relabelled_duplicate_raises_and_is_counted(self, fig5_workload):
        """The window flags a duplicate edge whose labels contradict the
        buffered event (previously dropped without trace)."""
        m = build_matcher(fig5_workload)
        m.offer(EdgeEvent(1, "a", 2, "b"))
        with pytest.raises(LabelConflictError):
            m.offer(EdgeEvent(1, "b", 2, "a"))
        assert m.stats.label_conflicts == 1
        assert m.pending() == 1


class TestClusterRemoval:
    def test_remove_cluster_drops_touching_matches(self, fig5_workload):
        m = build_matcher(fig5_workload)
        for e in (E1, E2, E3, E4, E5):
            m.offer(e)
        e1 = ek(m, 1, 2)
        m.remove_cluster({e1})
        for vertex in (1, 2, 3, 4, 5):
            vid = m.interner.id_of(vertex)
            for match in m.matchlist.matches_at(vid):
                assert e1 not in match.edges
        # e5's own single-edge match must survive.
        assert (frozenset([ek(m, 2, 3)]), ("a", "b")) in match_shapes(m, 2)

    def test_window_and_matchlist_stay_consistent(self, fig5_workload):
        m = build_matcher(fig5_workload)
        for e in (E1, E2, E3, E4, E5):
            m.offer(e)
        m.remove_cluster({ek(m, 1, 2), ek(m, 3, 4)})
        window_edges = set(m.window.edges())
        for match in m.matchlist.all_matches():
            assert set(match.edges) <= window_edges


class TestMatchInvariants:
    def test_matches_are_connected_and_isomorphic_to_motif(self, fig5_workload):
        """Every match's edge set must actually be isomorphic (including
        labels) to its motif node's exemplar — checked with networkx."""
        import networkx as nx
        from networkx.algorithms.isomorphism import categorical_node_match

        m = build_matcher(fig5_workload)
        for e in (E1, E2, E3, E4, E5):
            m.offer(e)
        window_graph = m.window.to_labelled_graph()
        for match in m.matchlist.all_matches():
            sub = window_graph.edge_subgraph(m.resolve_edges(match))
            assert sub.is_connected()
            assert nx.is_isomorphic(
                sub.to_networkx(),
                m.resolve_node(match).exemplar.to_networkx(),
                node_match=categorical_node_match("label", None),
            )

    def test_cap_limits_matches_per_vertex(self, fig5_workload):
        m = build_matcher(fig5_workload, max_matches_per_vertex=1)
        for e in (E1, E2, E3, E4, E5):
            m.offer(e)
        # The mandatory single-edge matches always register; everything
        # beyond the cap is suppressed.
        for v in (1, 2, 3, 4, 5):
            vid = m.interner.id_of(v)
            multi = [x for x in m.matchlist.matches_at(vid) if x.num_edges > 1]
            assert not multi
        assert m.stats.capped_registrations > 0

    def test_cap_validation(self, fig5_workload):
        with pytest.raises(ValueError):
            build_matcher(fig5_workload, max_matches_per_vertex=0)

    @pytest.mark.parametrize(
        "cap, counters, digest",
        [
            (2, (131, 131, 0, 398, 469, 0), "4a4a20dfcf6fa7fc"),
            (5, (131, 153, 1, 433, 563, 41), "f198ec6b7964a711"),
            (64, (131, 721, 48, 408, 1721, 1811), "431f0fb18826398b"),
        ],
    )
    def test_cap_hits_leave_counters_ids_and_evictions_pinned(
        self, fig5_workload, cap, counters, digest
    ):
        """The extension loop skips registrations it can see the cap will
        reject instead of building and undoing them.  Values taken from the
        build-then-undo matcher: every counter, every eviction's match list
        and the arena slot of every live match must not move."""
        graph = make_random_labelled_graph(60, 300, seed=8)
        events = list(stream_edges(graph, "bfs", seed=8))
        m = build_matcher(fig5_workload, 80, max_matches_per_vertex=cap)
        h = hashlib.sha256()

        def evict():
            e = m.next_eviction()
            h.update(repr((e.ekey, [(x.edges, x.state) for x in e.matches])).encode())
            m.remove_cluster(e.matches[0].edges)

        m.offer_batch(events, on_overflow=evict)
        live = [(i, x.edges, x.state) for i, x in enumerate(m.matchlist._arena) if x is not None]
        h.update(repr(live).encode())
        stats = m.stats
        assert (
            stats.edges_windowed,
            stats.matches_created,
            stats.pair_joins,
            stats.capped_registrations,
            stats.extension_probes,
            stats.leaf_gate_skips,
        ) == counters
        assert h.hexdigest()[:16] == digest


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    window=st.integers(1, 40),
    cap=st.sampled_from((3, 64, 10**9)),
)
def test_property_matches_of_an_edge_are_read_off_its_endpoints(seed, window, cap):
    """The matchList keeps no edge index: "the matches containing this
    edge" is derived from the two endpoints' vertex buckets.  Random
    workloads × streams × window sizes, under a cap that binds, the default
    and none: after every ``offer``, for every window edge, the derived
    set equals a brute-force scan of all live matches, and the eviction
    candidate's ``matches`` is that set in sort-key order."""
    rng = random.Random(seed)
    alphabet = ("a", "b", "c", "d")
    workload = random_path_workload(rng, alphabet)
    graph = make_random_labelled_graph(40, 110, labels=alphabet, seed=seed)
    m = build_matcher(workload, window, max_matches_per_vertex=cap)
    for event in stream_edges(graph, ("bfs", "dfs", "random")[seed % 3], seed=seed):
        if not m.offer(event):
            continue
        live = m.matchlist.all_matches()
        for ekey in m.window.edges():
            scanned = {match for match in live if ekey in match.edges}
            assert scanned, "every window edge keeps at least its single-edge match"
            assert m.matchlist.matches_containing_edge(ekey) == scanned
        eviction = m.next_eviction()
        assert set(eviction.matches) == {x for x in live if eviction.ekey in x.edges}
        assert len(eviction.matches) == len(set(eviction.matches))
        keys = [match.sort_key() for match in eviction.matches]
        assert keys == sorted(keys)
        while m.needs_eviction():
            m.remove_cluster(m.next_eviction().matches[0].edges)


def _sized_containers(obj, path, seen, out):
    """``(attribute path, len)`` of every container reachable from ``obj``
    through objects of this package (builtin containers are leaves)."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if not type(obj).__module__.startswith("repro."):
        if hasattr(obj, "__len__"):
            out.append((path, len(obj)))
        return
    names = list(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        names += list(getattr(klass, "__slots__", ()))
    for name in names:
        if hasattr(obj, name):
            _sized_containers(getattr(obj, name), f"{path}.{name}", seen, out)


class TestBoundedState:
    def test_window_and_matchlist_hold_order_capacity_on_a_long_stream(self, fig5_workload):
        """Loom is an online partitioner: after 50 × capacity windowed
        edges nothing the window or the matchList holds may have grown
        with the stream.  The stream replays one small graph, so the
        interners are bounded too; the eviction is Loom's stand-in (drop
        the oldest edge's own cluster)."""
        capacity = 40
        graph = make_random_labelled_graph(2 * capacity, 5 * capacity, seed=8)
        events = list(stream_edges(graph, "bfs", seed=8))
        m = build_matcher(fig5_workload, capacity)

        def evict():
            m.remove_cluster(m.next_eviction().matches[0].edges)

        while m.stats.edges_windowed < 50 * capacity:
            m.offer_batch(events, on_overflow=evict)
        assert m.pending() <= capacity

        sizes = []
        seen = set()
        _sized_containers(m.window, "window", seen, sizes)
        _sized_containers(m.matchlist, "matchlist", seen, sizes)
        assert {"window._events", "matchlist._arena"} <= {path for path, _ in sizes}
        oversized = [(path, n) for path, n in sizes if n > 10 * capacity]
        assert not oversized, oversized

    def test_deferral_queue_holds_order_capacity_on_a_long_stream(self, fig5_workload):
        """The same bound for Loom's queue of parked vertices: a vertex
        waits one window turnover, so over a stream of fresh vertices
        that parks many times ``10 × capacity`` of them the queue never
        holds more than that at once."""
        from repro.core.loom import LoomPartitioner
        from repro.partitioning.state import PartitionState

        capacity = 40
        graph = make_random_labelled_graph(
            150 * capacity, 300 * capacity, labels=("a", "b", "c", "d"), seed=8
        )
        state = PartitionState.for_graph(4, graph.num_vertices)
        loom = LoomPartitioner(state, fig5_workload, window_size=capacity)
        peak = 0
        for event in stream_edges(graph, "random", seed=8):
            loom.ingest(event)
            peak = max(peak, len(loom._parked))
        assert loom.matcher.stats.root_hits > 50 * capacity
        assert loom.stats["deferred_vertices"] > 50 * capacity
        assert peak == loom.stats["deferred_peak"] <= 10 * capacity
        loom.finalize()
        assert not loom._parked


    def test_loom_keeps_no_neighbours_it_never_reads(self, fig5_workload):
        """Two of Loom's structures used to store the stream again.  A
        vertex whose label occurs in no motif is placed at its first edge
        and never looked at again, so 150 × capacity of them leave the
        seen adjacency empty; and the window keeps a label and an edge
        count per vertex it holds — no neighbour set — so everything it
        owns stays O(capacity).  (Its interner is the partition state's:
        O(vertices) by design, not the window's to bound.)"""
        from repro.core.loom import LoomPartitioner
        from repro.partitioning.state import PartitionState

        capacity = 40
        fresh = 150 * capacity
        graph = make_random_labelled_graph(2 * capacity, 5 * capacity, seed=8)
        state = PartitionState.for_graph(4, fresh + graph.num_vertices)
        loom = LoomPartitioner(state, fig5_workload, window_size=capacity)
        assert not {"x", "y"} & loom.plan.motif_labels
        for i in range(0, fresh, 2):
            loom.ingest(EdgeEvent(("x", i), "x", ("y", i + 1), "y"))
        assert state.num_assigned == fresh
        assert len(loom._adj) == 0

        for event in stream_edges(graph, "bfs", seed=8):
            loom.ingest(event)
        window = loom.matcher.window
        assert len(window) == capacity
        assert 0 < len(loom._adj) <= graph.num_vertices
        sizes = []
        _sized_containers(window, "window", set(), sizes)
        owned = [(path, n) for path, n in sizes if not path.startswith("window.interner")]
        assert {"window._events", "window._labels"} <= {path for path, _ in owned}
        oversized = [(path, n) for path, n in owned if n > 10 * capacity]
        assert not oversized, oversized
        per_vertex_containers = [
            name
            for name in window.__slots__
            if isinstance(getattr(window, name), dict)
            and any(hasattr(value, "__len__") for value in getattr(window, name).values())
        ]
        assert per_vertex_containers == []


class TestMatchAndMatchList:
    def test_match_equality_and_hash(self):
        e = pack_edge(1, 2)
        assert Match(frozenset([e]), 0, 1.0) == Match(frozenset([e]), 0, 1.0)
        assert Match(frozenset([e]), 0, 1.0) != Match(frozenset([e]), 1, 1.0)
        assert len({Match(frozenset([e]), 0, 1.0), Match(frozenset([e]), 0, 1.0)}) == 1

    def test_match_degree_of(self):
        match = Match(frozenset([pack_edge(1, 2), pack_edge(2, 3)]), 0, 1.0)
        assert match.degree_of(2) == 2
        assert match.degree_of(1) == 1
        assert match.degree_of(9) == 0

    def test_match_contract_holds_each_fact_once(self, fig5_workload):
        """A match stores no vertex set, degree map, support or cached
        hash: ``vertices`` and ``degree_of`` are read off its endpoint
        tuple (first-seen order), its sort key leads with the plan's one
        negated support float of its state, and the hash is that of
        ``(edges, state)`` — for constructed matches and for those the
        matcher registers through its slot-store fast path alike."""
        assert set(Match.__slots__) == {"edges", "state", "_ends", "_sort_key"}
        built = Match([pack_edge(5, 2), pack_edge(2, 1)], 3, 0.5)
        assert list(built.vertices) == [1, 2, 5]  # over the sorted edges
        assert [built.degree_of(v) for v in (1, 2, 5, 9)] == [1, 2, 1, 0]

        m = build_matcher(fig5_workload)
        for e in (E1, E2, E3, E4, E5):
            m.offer(e)
        registered = m.matchlist.all_matches()
        assert any(match.num_edges > 2 for match in registered)
        id_of = m.interner.id_of
        for match in registered:
            twin = Match(match.edges, match.state, match.support)
            assert twin == match and hash(twin) == hash(match)
            assert hash(match) == hash((match.edges, match.state))
            assert len({match, twin}) == 1
            assert len(match._ends) == 2 * match.num_edges
            assert sum(map(match.degree_of, match.vertices)) == 2 * match.num_edges
            assert match._sort_key[0] is m.plan.neg_support[match.state]
            assert match.support == m.plan.support[match.state]
            assert sorted(match.vertices) == sorted(twin.vertices)
            assert all(match.degree_of(v) == twin.degree_of(v) for v in twin.vertices)
        # First-seen order is stream order along the extension: the a-b-c
        # match that e3 = (4, 5) grew from e2 = (3, 4).
        (abc,) = [
            match
            for match in registered
            if match.edges == tuple(sorted((ek(m, 3, 4), ek(m, 4, 5))))
        ]
        assert list(abc.vertices) == [id_of(3), id_of(4), id_of(5)]
        assert [abc.degree_of(id_of(v)) for v in (3, 4, 5)] == [1, 2, 1]

    def test_sort_key_is_integer_based(self):
        """No repr() strings on the hot path: tie-breaks compare packed ids."""
        match = Match(frozenset([pack_edge(2, 1), pack_edge(2, 3)]), 0, 0.7)
        support, size, ties = match.sort_key()[:3]
        assert support == -0.7
        assert size == 2
        assert ties == (pack_edge(1, 2), pack_edge(2, 3))

    def test_matchlist_indexes(self):
        ml = MatchList()
        e = pack_edge(1, 2)
        match = Match(frozenset([e]), 0, 1.0)
        assert ml.add(match)
        assert not ml.add(match)  # duplicate
        assert ml.matches_at(1) == {match}
        assert ml.matches_containing_edge(e) == {match}
        ml.discard(match)
        assert ml.matches_at(1) == set()
        assert len(ml) == 0

    def test_drop_edges_returns_dropped(self):
        ml = MatchList()
        e1, e2 = pack_edge(1, 2), pack_edge(3, 4)
        m1, m2 = Match(frozenset([e1]), 0, 1.0), Match(frozenset([e2]), 0, 1.0)
        ml.add(m1)
        ml.add(m2)
        dropped = ml.drop_edges([e1])
        assert dropped == {m1}
        assert m2 in ml


def assert_index_matches_arena(matchlist: MatchList, cap: int) -> None:
    """Rebuild the matchList's vertex index and id table from its arena
    and hold the live ones to them: buckets equal the rebuilt index as
    sets, none is empty or holds an id twice, only mandatory single-edge
    matches take a bucket past ``cap``, and ``_ids`` maps each live
    match's key to its id and nothing else."""
    arena = matchlist._arena
    live = {mid: match for mid, match in enumerate(arena) if match is not None}
    rebuilt = {}
    for mid, match in live.items():
        for vid in match.vertices:
            rebuilt.setdefault(vid, set()).add(mid)
    by_vertex = matchlist._by_vertex
    assert {vid: set(bucket) for vid, bucket in by_vertex.items()} == rebuilt
    for vid, bucket in by_vertex.items():
        assert bucket, vid
        assert len(set(bucket)) == len(bucket), vid
        # A multi-edge match registers only into buckets below the cap, so
        # however many single-edge matches arrive later, at most ``cap``
        # multi-edge ones share a bucket.
        assert sum(live[mid].num_edges > 1 for mid in bucket) <= cap, vid
    assert len(matchlist._ids) == len(live)
    for key, mid in matchlist._ids.items():
        assert key[-2:] == (live[mid].edges, live[mid].state)
    assert sorted(matchlist._free + list(live)) == list(range(len(arena)))


class TestMatchListIndexOracle:
    def test_index_equals_the_arena_after_every_benchmark_batch(self):
        """The 8k benchmark Loom pass (the shape of ``tests/test_loom_pins.py``),
        checked against :func:`assert_index_matches_arena` after every
        2048-edge batch and once more after ``finalize``."""
        dataset, events = bench_loom_input()
        loom = new_bench_loom(dataset, events)
        matchlist = loom.matcher.matchlist
        cap = loom.matcher.max_matches_per_vertex
        fullest = 0
        for batch in batched(events, BENCH_BATCH_EDGES):
            loom.ingest_batch(batch)
            assert_index_matches_arena(matchlist, cap)
            fullest = max([fullest, *map(len, matchlist._by_vertex.values())])
        assert fullest >= cap  # the cap binds on this pass
        loom.finalize()
        assert_index_matches_arena(matchlist, cap)
        assert not matchlist._by_vertex and not matchlist._ids

    @pytest.mark.parametrize("cap", [2, 5, 64])
    def test_index_equals_the_arena_through_cap_rollbacks(self, fig5_workload, cap):
        """The Fig. 5 workload over a random graph grows matches past two
        edges, so a cap hit can land after some of a match's buckets took
        its id and roll them back: the oracle holds after every edge."""
        graph = make_random_labelled_graph(60, 300, seed=8)
        m = build_matcher(fig5_workload, 80, max_matches_per_vertex=cap)
        for event in stream_edges(graph, "bfs", seed=8):
            m.offer(event)
            while m.needs_eviction():
                m.remove_cluster(m.next_eviction().matches[0].edges)
            assert_index_matches_arena(m.matchlist, cap)
        assert m.stats.capped_registrations > 0
