"""The serving layer's parts: stores, routers, engine, cache, traffic."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.figure1 import figure1_graph, figure1_workload
from repro.graph.labelled_graph import LabelledGraph
from repro.graph.stream import EdgeEvent, stream_edges
from repro.partitioning import registry
from repro.partitioning.state import UNASSIGNED, PartitionState
from repro.serving import (
    ResultCache,
    ServingEngine,
    ServingStores,
    TrafficDriver,
    available_routers,
    create_router,
    register_router,
)
from repro.serving.router import BUILTIN_ROUTERS, Router, unregister_router
from repro.serving.stores import RoutingIndex
from repro.serving.traffic import percentile


def _partitioned_figure1(system="ldg", k=2, seed=0):
    graph = figure1_graph()
    workload = figure1_workload()
    state = PartitionState.for_graph(k, graph.num_vertices)
    partitioner = registry.create(
        system, state, graph=graph, workload=workload, window_size=8, seed=seed
    )
    partitioner.ingest_all(stream_edges(graph, "bfs", seed=seed))
    return graph, workload, state


class TestServingStores:
    def test_materialises_every_vertex_and_edge(self):
        graph, _workload, state = _partitioned_figure1()
        stores = ServingStores.from_state(graph, state)
        assert stores.num_vertices == graph.num_vertices
        assert stores.num_edges == graph.num_edges
        assert stores.num_pending == 0
        assert sum(s.num_members for s in stores.stores) == graph.num_vertices

    def test_border_index_matches_cut_edges(self):
        graph, _workload, state = _partitioned_figure1()
        stores = ServingStores.from_state(graph, state)
        cut = sum(
            1
            for u, v in graph.edges()
            if state.partition_of(u) != state.partition_of(v)
        )
        assert stores.num_border_edges == cut
        # Each cut edge appears in both endpoints' adjacency lists.
        listed = sum(
            state.partition_of_id(other) != store.partition
            for store in stores.stores
            for row in store._adj.values()
            for other in row
        )
        assert listed == 2 * cut

    def test_label_index_feeds_candidates(self):
        graph, _workload, state = _partitioned_figure1()
        stores = ServingStores.from_state(graph, state)
        lid = stores.labels.id_of("a")
        expected = sorted(
            state.interner.id_of(v) for v in graph.vertices_with_label("a")
        )
        assert stores.all_candidates(lid) == expected
        assert sum(stores.candidate_counts(lid)) == len(expected)

    def test_unassigned_endpoint_parks_pending(self):
        state = PartitionState(2, capacity=4)
        stores = ServingStores(state)
        state.assign("x", 0)
        assert stores.ingest_edge(EdgeEvent("x", "a", "y", "b")) is None
        assert stores.num_pending == 1
        state.assign("y", 1)
        visible = stores.flush_pending()
        assert len(visible) == 1
        assert stores.num_pending == 0
        assert stores.num_border_edges == 1

    def test_duplicate_edges_are_noops(self):
        state = PartitionState(2, capacity=4)
        state.assign("x", 0)
        state.assign("y", 0)
        stores = ServingStores(state)
        assert stores.ingest_edge(EdgeEvent("x", "a", "y", "b")) is not None
        assert stores.ingest_edge(EdgeEvent("y", "b", "x", "a")) is None
        assert stores.num_edges == 1

    def test_in_process_stores_queue_no_vertex_rows(self):
        """Only a live driver takes vertex announcements; stores nobody
        drains must not grow a row per vertex with the stream."""
        graph, _workload, state = _partitioned_figure1()
        stores, index = ServingStores(state), RoutingIndex(state)
        for u, v in graph.edges():
            event = EdgeEvent(u, graph.label(u), v, graph.label(v))
            assert stores.ingest_edge(event) == index.ingest_edge(event)
        assert stores.num_vertices == index.num_vertices == graph.num_vertices
        assert stores._new_vertices == []
        assert ServingStores.from_state(graph, state)._new_vertices == []
        assert len(index.take_new_vertices()) == graph.num_vertices


def _replay(cls, graph, state):
    """What ``from_state`` must equal — the definition of a cold build: the
    placed vertices join, then ``graph.edges()`` streams through
    ``ingest_edge``."""
    built = cls(state)
    for v in graph.vertices():
        vid = state.interner.id_of(v)
        if vid is not None and state.partition_of_id(vid) != UNASSIGNED:
            built._add_member(vid, graph.label(v))
    for u, v in graph.edges():
        built.ingest_edge(EdgeEvent(u, graph.label(u), v, graph.label(v)))
    return built


def _slots(obj):
    """Every slot of ``obj``, inherited ones included."""
    return [slot for cls in type(obj).__mro__ for slot in getattr(cls, "__slots__", ())]


def _fields(built):
    """Every field but ``state``; dicts as item lists, so key order counts."""

    def ordered(value):
        return list(value.items()) if isinstance(value, dict) else value

    out = {}
    for slot in _slots(built):
        if slot == "state":
            continue
        value = getattr(built, slot)
        if slot == "labels":
            value = list(value.labels())
        elif slot == "stores":
            value = [
                {name: ordered(getattr(store, name)) for name in _slots(store)}
                for store in value
            ]
        out[slot] = ordered(value)
    return out


def test_fields_cover_adjacency_and_counters():
    """The cold-build property below compares what ``_fields`` lists."""
    graph, _workload, state = _partitioned_figure1()
    fields = _fields(ServingStores.from_state(graph, state))
    assert {"_label_of", "_edges", "_pending", "num_edges", "num_border_edges"} <= set(fields)
    assert all({"_adj", "_by_label", "num_members"} <= set(store) for store in fields["stores"])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 5))
@pytest.mark.parametrize("cls", [ServingStores, RoutingIndex])
def test_from_state_equals_replaying_the_edges(cls, seed, k):
    rng = random.Random(seed)
    # Ids run past 9 so repr order (which orients graph.edges()) and id
    # order disagree; insertion order is shuffled; some vertices isolated.
    vertices = rng.sample(range(40), rng.randint(2, 24))
    graph = LabelledGraph("random")
    for v in vertices:
        graph.add_vertex(v, rng.choice("abc"))
    for _ in range(rng.randint(0, 3 * len(vertices))):
        u, v = rng.sample(vertices, 2)
        graph.add_edge(u, v)
    # A partial assignment: placed, interned but unplaced (inside and past
    # the assignment vector), and never seen — interned in a third order.
    state = PartitionState(k, capacity=len(vertices))
    for v in rng.sample(vertices, len(vertices)):
        fate = rng.random()
        if fate < 0.6:
            state.assign(v, rng.randrange(k))
        elif fate < 0.7:
            state.intern(v)
        elif fate < 0.8:
            state.interner.intern(v)

    built, reference = cls.from_state(graph, state), _replay(cls, graph, state)
    assert _fields(built) == _fields(reference)

    for v in vertices:
        if not state.is_assigned(v):
            state.assign(v, rng.randrange(k))
    assert built.flush_pending() == reference.flush_pending()
    assert _fields(built) == _fields(reference)
    assert built.num_edges == graph.num_edges and built.num_pending == 0


class TestRouterRegistry:
    def test_builtins_available(self):
        names = available_routers()
        for name in BUILTIN_ROUTERS:
            assert name in names

    def test_unknown_router_raises_with_names(self):
        with pytest.raises(ValueError) as err:
            create_router("no-such-router")
        message = str(err.value)
        assert "no-such-router" in message
        for name in BUILTIN_ROUTERS:
            assert name in message

    def test_register_and_unregister(self):
        class _First(Router):
            name = "first-only"

            def route(self, stores, root_label_id):
                counts = stores.candidate_counts(root_label_id)
                return [p for p, c in enumerate(counts) if c > 0][:1]

        register_router("first-only", _First)
        try:
            assert "first-only" in available_routers()
            assert isinstance(create_router("first-only"), _First)
        finally:
            unregister_router("first-only")
        assert "first-only" not in available_routers()

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            register_router("", lambda: None)


class TestRouters:
    def test_broadcast_contacts_every_partition(self):
        graph, workload, state = _partitioned_figure1(k=2)
        engine = ServingEngine(graph, state, workload, router="broadcast")
        report = engine.execute_query("q2")
        assert report.partitions_contacted == state.k

    def test_candidate_count_skips_empty_partitions(self):
        graph, workload, state = _partitioned_figure1(k=4)
        engine = ServingEngine(graph, state, workload, router="candidate-count")
        lid = engine.root_label_id("q2")
        counts = engine.stores.candidate_counts(lid)
        routed = engine.router.route(engine.stores, lid)
        assert routed == sorted(
            (p for p, c in enumerate(counts) if c > 0),
            key=lambda p: (-counts[p], p),
        )
        assert all(counts[p] > 0 for p in routed)

    def test_label_selectivity_orders_by_density(self):
        graph, workload, state = _partitioned_figure1(k=2)
        engine = ServingEngine(graph, state, workload, router="label-selectivity")
        lid = engine.root_label_id("q2")
        routed = engine.router.route(engine.stores, lid)
        densities = [
            store.candidate_count(lid) / max(1, store.num_members)
            for store in engine.stores.stores
        ]
        assert routed == sorted(
            (p for p in range(state.k) if densities[p] > 0),
            key=lambda p: (-densities[p], p),
        )

    def test_all_routers_agree_on_results(self):
        graph, workload, state = _partitioned_figure1()
        baseline = None
        for name in BUILTIN_ROUTERS:
            engine = ServingEngine(graph, state, workload, router=name)
            totals = {
                q.name: (q.embeddings, q.hops)
                for q in engine.execute_workload().queries
            }
            if baseline is None:
                baseline = totals
            else:
                assert totals == baseline


class TestServingEngine:
    def test_unknown_query_raises(self):
        graph, workload, state = _partitioned_figure1()
        engine = ServingEngine(graph, state, workload)
        with pytest.raises(KeyError):
            engine.execute_query("nope")

    def test_unknown_root_vertex_raises(self):
        graph, workload, state = _partitioned_figure1()
        engine = ServingEngine(graph, state, workload)
        with pytest.raises(KeyError):
            engine.serve_vertex("q2", "never-seen")

    def test_wrong_label_root_serves_empty(self):
        graph, workload, state = _partitioned_figure1()
        engine = ServingEngine(graph, state, workload)
        # q2 = a-b-c roots at its rarest-label slot; vertex 4 is labelled d,
        # which can never be a q2 root.
        result = engine.serve_vertex("q2", 4)
        assert result.num_embeddings == 0 and result.hops == 0

    def test_partitioner_must_share_state(self):
        graph, workload, state = _partitioned_figure1()
        other = PartitionState.for_graph(2, graph.num_vertices)
        partitioner = registry.create("ldg", other, graph=graph)
        with pytest.raises(ValueError):
            ServingEngine(graph, state, workload, partitioner=partitioner)

    def test_embeddings_are_injective_and_label_correct(self):
        graph, workload, state = _partitioned_figure1()
        engine = ServingEngine(graph, state, workload)
        lid = engine.root_label_id("q1")
        for root in engine.stores.all_candidates(lid):
            for embedding in engine.serve_root("q1", root).embeddings:
                assert len(set(embedding)) == len(embedding)
                assert embedding[0] == root


class TestResultCache:
    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put(("q", 1), "one")
        cache.put(("q", 2), "two")
        assert cache.get(("q", 1)) == "one"  # touch 1 → 2 is now LRU
        cache.put(("q", 3), "three")
        assert ("q", 2) not in cache
        assert cache.get(("q", 1)) == "one"

    def test_stats_track_hits_misses_invalidations(self):
        cache = ResultCache()
        assert cache.get(("q", 1)) is None
        cache.put(("q", 1), "x")
        assert cache.get(("q", 1)) == "x"
        assert cache.invalidate_roots("q", [1, 2]) == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["invalidations"] == 1

    def test_drop_query_only_drops_that_query(self):
        cache = ResultCache()
        cache.put(("q1", 1), "a")
        cache.put(("q2", 1), "b")
        assert cache.drop_query("q1") == 1
        assert ("q2", 1) in cache

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_engine_keeps_caller_supplied_empty_cache(self):
        """An empty ResultCache is falsy (``__len__``) — the engine must
        still adopt it rather than silently serving uncached."""
        graph, workload, state = _partitioned_figure1()
        cache = ResultCache(max_entries=64)
        engine = ServingEngine(graph, state, workload, cache=cache)
        assert engine.cache is cache
        engine.execute_query("q2")
        assert len(cache) > 0


class TestTrafficDriver:
    def test_sampling_is_deterministic(self):
        graph, workload, state = _partitioned_figure1()
        engine = ServingEngine(graph, state, workload)
        a = TrafficDriver(engine, seed=7, zipf_s=1.0).sample(50)
        b = TrafficDriver(engine, seed=7, zipf_s=1.0).sample(50)
        assert a == b
        c = TrafficDriver(engine, seed=8, zipf_s=1.0).sample(50)
        assert a != c

    def test_sample_respects_root_labels(self):
        graph, workload, state = _partitioned_figure1()
        engine = ServingEngine(graph, state, workload)
        for name, root in TrafficDriver(engine, seed=0).sample(100):
            assert engine.stores.label_id_of(root) == engine.root_label_id(name)

    def test_cache_hits_charge_no_hops(self):
        graph, workload, state = _partitioned_figure1()
        engine = ServingEngine(graph, state, workload, cache=True)
        driver = TrafficDriver(engine, seed=0, zipf_s=2.0)
        requests = driver.sample(200)
        report = driver.run(0, requests=requests, system="ldg")
        assert report.requests == 200
        # Every distinct (query, root) misses once; repeats hit.
        distinct = len(set(requests))
        assert report.cache_misses == distinct
        assert report.cache_hits == 200 - distinct
        # The protocol's per-request flags, on a fresh engine, add up to
        # the report's split: a miss is the first sight of a (query, root).
        fresh = ServingEngine(graph, state, workload, cache=True)
        seen = set()
        flags = []
        for name, root in requests:
            request_id = fresh.submit(name, root)
            ((done_id, _result, cached),) = fresh.poll_completed()
            assert done_id == request_id
            assert cached is ((name, root) in seen)
            seen.add((name, root))
            flags.append(cached)
        assert flags.count(True) == report.cache_hits
        assert flags.count(False) == report.cache_misses
        # Uncached, the flag is None and the report counts neither.
        uncached = ServingEngine(graph, state, workload)
        uncached.submit(*requests[0])
        assert uncached.poll_completed()[0][2] is None
        assert uncached.poll_completed() == []

    def test_report_shape(self):
        graph, workload, state = _partitioned_figure1()
        engine = ServingEngine(graph, state, workload, cache=True)
        report = TrafficDriver(engine, seed=0).run(25, system="ldg")
        payload = report.as_dict()
        for key in (
            "queries_per_sec",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "hops_per_query",
            "cache_hit_rate",
        ):
            assert key in payload
        assert payload["system"] == "ldg"
        assert report.p50_ms <= report.p95_ms <= report.p99_ms

    def test_engine_serves_its_queue_in_submission_order(self):
        """In process, one poll serves the oldest queued request: a request
        waits behind those submitted before it, as at any single server."""
        graph, workload, state = _partitioned_figure1()
        engine = ServingEngine(graph, state, workload)
        requests = TrafficDriver(engine, seed=0).sample(5)
        ids = [engine.submit(name, root) for name, root in requests]
        served = [engine.poll_completed() for _ in requests]
        assert [done[0][0] for done in served] == ids
        assert [done[0][1] for done in served] == [
            engine.serve_root(name, root) for name, root in requests
        ]
        assert engine.poll_completed() == []
        with pytest.raises(KeyError):
            engine.submit("no-such-query", 0)

    def test_rejects_bad_parameters(self):
        graph, workload, state = _partitioned_figure1()
        engine = ServingEngine(graph, state, workload)
        with pytest.raises(ValueError):
            TrafficDriver(engine, zipf_s=-1.0)
        driver = TrafficDriver(engine)
        with pytest.raises(ValueError):
            driver.run(5, inflight=0)
        with pytest.raises(ValueError):
            driver.run(5, rate=0)


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.95) == 4.0
        assert percentile(values, 1.0) == 4.0
        assert percentile([], 0.5) == 0.0
