"""The live cluster's correctness anchor.

:class:`~repro.runtime.live.LiveCluster` re-executes the serving engine's
partition-local DFS across real processes — so its contract is *bit
equality* with the single-process engine, which itself bit-matches the
offline executor's ``cut_traversals``.  This file pins that chain for
every partitioner, every router and several shard counts, on quiesced
and interleaved (ingest-while-serving) streams, plus the failure surface:
a killed or crashing server must become a diagnosable exception, never a
hang.
"""

import hashlib
import multiprocessing as mp
import os
import pickle
import signal
import time
from contextlib import closing

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_random_labelled_graph

from repro import obs
from repro.graph.interning import pack_edge, unpack_edge
from repro.graph.labelled_graph import LabelledGraph
from repro.graph.stream import batched, stream_edges
from repro.partitioning import registry
from repro.partitioning.registry import BUILTIN_SYSTEMS
from repro.partitioning.state import PartitionState
from repro.query.executor import WorkloadExecutor
from repro.query.isomorphism import embedding_edges, find_embeddings
from repro.query.pattern import cycle_pattern, path_pattern
from repro.query.workload import Workload
from repro.runtime.live import LiveCluster, boot_snapshot
from repro.runtime.liveness import ShardProcessError
from repro.runtime.messages import (
    SCHEMA_VERSION,
    CachePut,
    EdgeUpdate,
    IngestAck,
    InvalidationHops,
    QueryRequest,
    ServeSpec,
    ServerFailure,
    ServerStats,
    StatsReport,
    StatsRequest,
    StepReply,
    StepRequest,
    WIRE_TYPES,
    check_schema,
)
from repro.runtime.server import ShardServer
from repro.serving import RootResult, ServingEngine
from repro.serving.cache import ResultCache
from repro.serving.execution import CompiledPlan, Continuation, LiteralSegment
from repro.serving.router import BUILTIN_ROUTERS
from repro.serving.stores import RoutingIndex, ShardStores
from repro.serving.traffic import TrafficDriver


def _random_case():
    graph = make_random_labelled_graph(60, 130, seed=11)
    workload = Workload(
        [
            (path_pattern(["a", "b", "c"], name="abc"), 0.5),
            (cycle_pattern(["a", "b", "a", "b"], name="abab"), 0.3),
            (path_pattern(["c", "b"], name="cb"), 0.2),
        ],
        name="random",
    )
    return graph, workload


def _partition(system, graph, workload, k, seed=0):
    state = PartitionState.for_graph(k, graph.num_vertices)
    partitioner = registry.create(
        system,
        state,
        graph=graph,
        workload=workload,
        window_size=max(8, graph.num_edges // 4),
        seed=seed,
    )
    partitioner.ingest_all(stream_edges(graph, "bfs", seed=seed))
    return state


def _report_rows(report):
    """A ServeReport's queries as comparable tuples (drops wall time)."""
    return [
        (
            q.name,
            q.frequency,
            q.embeddings,
            q.traversals,
            q.hops,
            q.border_expansions,
            q.partitions_contacted,
            q.roots_scanned,
            q.cache_hits,
            q.cache_misses,
        )
        for q in report.queries
    ]


# ----------------------------------------------------------------------
# Quiesced equivalence: cluster == engine == executor, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", BUILTIN_SYSTEMS)
def test_quiesced_cluster_matches_engine_and_executor(system):
    """For every partitioner: routed multi-process serving returns the
    engine's exact report, whose hops are the executor's cut_traversals."""
    graph, workload = _random_case()
    state = _partition(system, graph, workload, k=4)
    offline = WorkloadExecutor(graph, workload, embedding_limit=None).execute(state, system)
    engine = ServingEngine(graph, state, workload, cache=True)
    served = engine.execute_workload(system)
    with LiveCluster(graph, state, workload, num_shards=2, cache=True) as cluster:
        live = cluster.execute_workload(system)
    assert _report_rows(live) == _report_rows(served)
    offline_by_name = {q.name: q for q in offline.queries}
    for query in live.queries:
        assert query.hops == offline_by_name[query.name].cut_traversals


@pytest.mark.parametrize("router", BUILTIN_ROUTERS)
def test_quiesced_every_router(router):
    """Routing changes dispatch order, never answers — live included."""
    graph, workload = _random_case()
    state = _partition("ldg", graph, workload, k=4)
    engine = ServingEngine(graph, state, workload, router=router, cache=True)
    served = engine.execute_workload("ldg")
    with LiveCluster(
        graph, state, workload, num_shards=2, router=router, cache=True
    ) as cluster:
        live = cluster.execute_workload("ldg")
    assert _report_rows(live) == _report_rows(served)


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_quiesced_shard_count_invariance(num_shards):
    """Answers, hops and cache stats are independent of the shard count."""
    graph, workload = _random_case()
    state = _partition("loom", graph, workload, k=4)
    engine = ServingEngine(graph, state, workload, cache=True)
    served = engine.execute_workload("loom")
    with LiveCluster(graph, state, workload, num_shards=num_shards, cache=True) as cluster:
        live = cluster.execute_workload("loom")
        stats = cluster.stats()
    assert _report_rows(live) == _report_rows(served)
    if num_shards == 1:
        assert stats["hop_messages_sent"] == 0  # one shard owns everything
    # Summed shard cache stats must equal the engine's cache counters.
    totals = {"hits": 0, "misses": 0, "entries": 0}
    for shard in stats["shards"]:
        for key in totals:
            totals[key] += shard["cache_stats"][key]
    assert totals["hits"] == engine.cache.hits
    assert totals["misses"] == engine.cache.misses


# ----------------------------------------------------------------------
# Interleaved ingest/serve: lock-step rounds keep bit equality
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cache", [True, False])
@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_interleaved_ingest_serve_matches_engine(num_shards, cache):
    """Serve bursts between ingest rounds: every answer, hop count and
    cache flag equals the single-process engine's, cache on or off."""
    graph, workload = _random_case()
    events = list(stream_edges(graph, "random", seed=3))

    def engine_transcript():
        state = PartitionState.for_graph(4, graph.num_vertices)
        partitioner = registry.create(
            "loom", state, graph=graph, workload=workload, window_size=30, seed=0
        )
        live_graph = LabelledGraph("live")
        engine = ServingEngine(
            live_graph, state, workload, partitioner=partitioner, cache=cache
        )
        transcript = []
        for chunk in batched(events, 37):
            engine.ingest(chunk)
            _serve_burst(engine, transcript)
        engine.finalize()
        _serve_burst(engine, transcript)
        cache_stats = engine.cache.stats() if engine.cache is not None else None
        return transcript, cache_stats

    def cluster_transcript():
        state = PartitionState.for_graph(4, graph.num_vertices)
        partitioner = registry.create(
            "loom", state, graph=graph, workload=workload, window_size=30, seed=0
        )
        live_graph = LabelledGraph("live")
        transcript = []
        with LiveCluster(
            live_graph,
            state,
            workload,
            num_shards=num_shards,
            cache=cache,
            partitioner=partitioner,
        ) as cluster:
            for chunk in batched(events, 37):
                cluster.ingest(chunk)
                _serve_burst(cluster, transcript)
            cluster.finalize()
            _serve_burst(cluster, transcript)
            cache_totals = None
            if cache:
                cache_totals = {"hits": 0, "misses": 0, "entries": 0, "invalidations": 0}
                for shard in cluster.shard_stats():
                    for key in cache_totals:
                        cache_totals[key] += shard.cache_stats[key]
        return transcript, cache_totals

    expected, engine_cache = engine_transcript()
    actual, cluster_cache = cluster_transcript()
    assert actual == expected
    if cache:
        assert cluster_cache == {
            key: engine_cache[key]
            for key in ("hits", "misses", "entries", "invalidations")
        }


def _serve_burst(server, transcript):
    """Serve every (query, candidate root) once; append comparable rows.

    Works against an engine or a cluster — both expose ``query_names`` /
    ``root_candidates`` / ``serve_root``.
    """
    for name in server.query_names():
        for root in server.root_candidates(name):
            result = server.serve_root(name, root)
            transcript.append(
                (name, root, result.embeddings, result.hops, result.border_expansions)
            )


# ----------------------------------------------------------------------
# Concurrent traffic: overlap changes timing, never answers
# ----------------------------------------------------------------------
def test_live_traffic_answers_invariant_across_shards_and_inflight():
    """One driver over either back end: the in-process engine is the
    golden input.  Answers and hops never move.  Cache hits and misses
    match on the engine at any inflight (it serves a FIFO) and on a
    cluster at inflight 1, where no two requests for one root overlap
    (free-running shard caches may race — ARCHITECTURE.md "Determinism
    promises")."""
    graph, workload = _random_case()
    state = _partition("loom", graph, workload, k=4)

    def drive(frontend, inflight):
        with closing(frontend):
            driver = TrafficDriver(frontend, seed=3, zipf_s=0.8)
            return driver.run(150, system="loom", inflight=inflight, collect_results=True)

    golden = drive(ServingEngine(graph, state, workload, cache=True), inflight=1)
    golden_rows = [(r.query, r.root, r.embeddings, r.hops) for r in golden.results]
    assert golden.requests == 150 and len(golden_rows) == 150
    assert golden.hop_messages == 0  # in process a hop is a call, not a message
    assert golden.cache_hits > 0 and golden.cache_misses > 0
    inputs = [
        ("engine", None, 8),
        ("cluster", 1, 1),
        ("cluster", 2, 1),
        ("cluster", 2, 8),
        ("cluster", 4, 4),
    ]
    for backend, num_shards, inflight in inputs:
        if backend == "engine":
            frontend = ServingEngine(graph, state, workload, cache=True)
        else:
            frontend = LiveCluster(graph, state, workload, num_shards=num_shards)
        report = drive(frontend, inflight)
        case = (backend, num_shards, inflight)
        rows = [(r.query, r.root, r.embeddings, r.hops) for r in report.results]
        assert rows == golden_rows, case
        assert (report.hops, report.embeddings) == (golden.hops, golden.embeddings), case
        assert report.cache_hits + report.cache_misses == 150, case
        if inflight == 1 or backend == "engine":
            assert (report.cache_hits, report.cache_misses) == (
                golden.cache_hits,
                golden.cache_misses,
            ), case


def test_live_sample_stream_matches_engine_sample_stream():
    """Same seed → the identical (query, root) stream from either surface."""
    graph, workload = _random_case()
    state = _partition("ldg", graph, workload, k=4)
    engine = ServingEngine(graph, state, workload)
    engine_stream = TrafficDriver(engine, seed=5, zipf_s=1.1).sample(200)
    with LiveCluster(graph, state, workload, num_shards=2) as cluster:
        live_stream = TrafficDriver(cluster, seed=5, zipf_s=1.1).sample(200)
    assert live_stream == engine_stream


def test_unplaced_root_short_circuits():
    """A root the partitioner never placed is answered driver-side, empty."""
    graph, workload = _random_case()
    state = _partition("ldg", graph, workload, k=4)
    with LiveCluster(graph, state, workload, num_shards=2) as cluster:
        result = cluster.serve_root("abc", 10**9)
        assert result.embeddings == () and result.hops == 0


def _lock_step(frontend, requests):
    """Serve ``requests`` one at a time through the request protocol:
    ``(query, root, embeddings, hops, cached)`` per request."""
    answers = []
    for name, root in requests:
        request_id = frontend.submit(name, root)
        ((done, result, cached),) = frontend.poll_completed()
        assert done == request_id
        answers.append((name, root, result.embeddings, result.hops, cached))
    return answers


def _cache_totals(frontend):
    caches = [shard.cache_stats for shard in frontend.shard_stats()]
    return {key: sum(c[key] for c in caches) for key in ("entries", "hits", "misses")}


def test_unplaced_roots_follow_one_rule_on_every_back_end():
    """A root that is negative, never interned or interned but still in
    Loom's window is answered by the driver on the engine and on a 1- and
    2-shard cluster alike: empty, 0 hops, no shard contacted, no cache
    entry, neither a hit nor a miss — while placed roots miss, then hit."""
    graph, workload = _random_case()
    events = list(stream_edges(graph, "random", seed=3))
    state = PartitionState.for_graph(4, graph.num_vertices)
    partitioner = registry.create(
        "loom", state, graph=graph, workload=workload, window_size=20, seed=0
    )
    partitioner.ingest_batch(events[:100])
    streamed = LabelledGraph("live")
    for event in events[:100]:
        streamed.add_edge(event.u, event.v, event.u_label, event.v_label)
    windowed = [vid for vid in range(len(state.interner)) if state.partition_of_id(vid) < 0]
    assert windowed, "the window holds no vertex"

    engine = ServingEngine(streamed, state, workload, cache=True)
    requests = []
    for name in engine.query_names():
        placed = engine.root_candidates(name)[:3]
        requests += [(name, root) for root in placed + [-1, 10**6, -1] + windowed[:2] + placed]
    expected = _lock_step(engine, requests)
    unplaced = [row for row in expected if row[1] < 0 or row[1] >= 10**6 or row[1] in windowed]
    assert [row[2:] for row in unplaced] == [((), 0, None)] * 5 * len(engine.query_names())
    flags = [row[4] for row in expected if row not in unplaced]
    assert flags.count(True) == flags.count(False) > 0
    misses = flags.count(False)
    totals = {"entries": misses, "hits": flags.count(True), "misses": misses}
    assert _cache_totals(engine) == totals
    for num_shards in (1, 2):
        with LiveCluster(streamed, state, workload, num_shards=num_shards) as cluster:
            assert _lock_step(cluster, requests) == expected, num_shards
            assert _cache_totals(cluster) == totals, num_shards


def _offline_root_answer(server, name, root):
    """``(embeddings, hops)`` the offline executor's enumeration gives one
    root: the query's embeddings in the *visible* graph (edges with both
    endpoints placed) whose plan-root slot maps to ``root``, and the cut
    edges they traverse."""
    state, graph = server.state, server.graph
    visible = LabelledGraph("visible")
    for u, v in graph.edges():
        if state.is_assigned(u) and state.is_assigned(v):
            visible.add_edge(u, v, graph.label(u), graph.label(v))
    plan = server._plan(name)
    root_vertex = state.interner.vertex(root)
    embeddings = hops = 0
    for embedding in find_embeddings(visible, plan.pattern, None):
        if embedding[plan.signature[0]] == root_vertex:
            embeddings += 1
            hops += sum(
                state.partition_of(u) != state.partition_of(v)
                for u, v in embedding_edges(plan.pattern, embedding)
            )
    return embeddings, hops


def test_parked_root_is_unplaced_until_settled_then_answers():
    """Loom parks motif-label endpoints of non-motif edges, so a vertex
    can be seen, unplaced and *not* in the window.  Requested mid-stream
    it takes the unplaced-root path on the engine and on a 2-shard cluster
    alike — empty answer, no hops, no shard contacted — and in the first
    burst after it is placed both return the offline executor's answer."""
    graph, workload = _random_case()
    events = list(stream_edges(graph, "random", seed=3))

    def deployment(cls, **kwargs):
        state = PartitionState.for_graph(4, graph.num_vertices)
        partitioner = registry.create(
            "loom", state, graph=graph, workload=workload, window_size=30, seed=0
        )
        return cls(LabelledGraph("live"), state, workload, partitioner=partitioner, **kwargs)

    engine = deployment(ServingEngine)
    with deployment(_TappedCluster, num_shards=2) as cluster:
        servers = (engine, cluster)
        names = engine.query_names()
        waiting = set()  # ids seen parked, not yet placed
        parked_served = answered = 0
        for chunk in [*batched(events, 37), None]:
            for server in servers:
                if chunk is None:
                    server.finalize()
                else:
                    server.ingest(chunk)
            parked = engine.partitioner.parked_vertices()
            assert cluster.partitioner.parked_vertices() == parked
            sent = len(cluster.sent)
            for vertex in parked:
                root = engine.state.interner.id_of(vertex)
                waiting.add(root)
                for name in names:
                    unplaced = RootResult(name, root, (), 0, 0)
                    assert [s.serve_root(name, root) for s in servers] == [unplaced] * 2
                    parked_served += 1
            assert not any(
                isinstance(m, (QueryRequest, StepRequest)) for m in cluster.sent[sent:]
            )
            for root in sorted(waiting):
                if not engine.state.is_assigned_id(root):
                    continue  # still parked, or held by the window now
                waiting.discard(root)
                for name in names:
                    served = engine.serve_root(name, root)
                    assert cluster.serve_root(name, root) == served
                    assert (served.num_embeddings, served.hops) == _offline_root_answer(
                        engine, name, root
                    )
                    answered += served.num_embeddings > 0
        assert engine.partitioner.stats == cluster.partitioner.stats
    assert not waiting
    assert parked_served > 0 and answered > 0


# ----------------------------------------------------------------------
# Boot: one cold pass, each shard's slice adopted in one go
# ----------------------------------------------------------------------
def _replayed_shards(graph, state, num_shards):
    """Each shard's stores as ``EdgeUpdate`` rows would build them: every
    placed vertex's row, then every visible edge as a row in packed-key
    order, applied by ``ShardServer.apply_update`` — the per-edge replay
    a bulk boot must equal.  The visible edges come from the graph itself:
    ``graph.edges()`` with both endpoints placed."""
    index = RoutingIndex.from_state(graph, state)
    part_of, label_of, id_of = state.partition_of_id, index.label_id_of, state.interner.id_of
    vertices = [[] for _ in range(num_shards)]
    edges = [[] for _ in range(num_shards)]
    for row in index.take_new_vertices():
        vertices[row[2] % num_shards].append(row)
    visible = {
        pack_edge(id_of(u), id_of(v))
        for u, v in graph.edges()
        if state.is_assigned(u) and state.is_assigned(v)
    }
    for key in sorted(visible):
        uid, vid = unpack_edge(key)
        row = (uid, label_of(uid), part_of(uid), vid, label_of(vid), part_of(vid))
        for shard in {part_of(uid) % num_shards, part_of(vid) % num_shards}:
            edges[shard].append(row)
    shards = []
    for shard in range(num_shards):
        server = ShardServer(ServeSpec(shard, num_shards, state.k, ()))
        server.apply_update(EdgeUpdate(1, vertices[shard], edges[shard], (), False))
        shards.append(server.stores)
    return index, shards


_SHARD_FIELDS = (
    "_adj",
    "_label_of",
    "_partition_of",
    "num_edges",
    "num_border_edges",
    "num_ghosts",
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    system=st.sampled_from(["hash", "loom"]),
    k=st.integers(1, 5),
    num_shards=st.sampled_from([1, 2, 4]),
    complete=st.booleans(),
)
def test_boot_snapshot_equals_replaying_edge_rows(seed, system, k, num_shards, complete):
    """A shard booted from the snapshot is field for field the shard the
    same graph builds as wire rows — for Hash and Loom placements, any
    shard count, and partially placed graphs, whose edges with an unplaced
    endpoint stay in the driver's pending buffer and out of every slice."""
    graph, workload = make_random_labelled_graph(30, 60, seed=seed), _random_case()[1]
    events = list(stream_edges(graph, "random", seed=seed))
    graph.add_vertex(100, "a")  # isolated, placed below
    graph.add_edge(101, 0, "b")  # never streamed: 101 is never placed
    state = PartitionState.for_graph(k, graph.num_vertices)
    partitioner = registry.create(
        system, state, graph=graph, workload=workload, window_size=10, seed=seed
    )
    if complete:
        partitioner.ingest_all(events)
    else:  # half the stream: unseen vertices, and Loom's window and parked ones
        partitioner.ingest_batch(events[: len(events) // 2])
    state.assign(100, seed % k)

    index, members, ghosts = boot_snapshot(graph, state, num_shards)
    reference, replayed = _replayed_shards(graph, state, num_shards)
    assert index._pending == reference._pending
    assert (index.num_edges, index.num_border_edges) == (
        reference.num_edges,
        reference.num_border_edges,
    )
    assert index.take_new_vertices() == []  # the snapshot carries them
    for shard in range(num_shards):
        booted = ShardStores.from_rows(shard, num_shards, k, members[shard], ghosts[shard])
        for name in _SHARD_FIELDS:
            assert getattr(booted, name) == getattr(replayed[shard], name), name
        named = {vid for vid, *_rest in ghosts[shard]}
        for vid, _label, _part, nbrs in members[shard]:
            named.add(vid)
            named.update(nbrs)
        assert all(state.is_assigned_id(vid) for vid in named)
    assert index.num_pending > 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 5), complete=st.booleans())
def test_engine_slice_equals_a_one_shard_boot(seed, k, complete):
    """The engine's one shard shares the routing index's label map and the
    state's assignment vector instead of copying them; otherwise it is
    field for field the slice a one-shard cluster boots from the same
    graph — fully or partly placed."""
    graph, workload = make_random_labelled_graph(30, 60, seed=seed), _random_case()[1]
    events = list(stream_edges(graph, "random", seed=seed))
    state = PartitionState.for_graph(k, graph.num_vertices)
    partitioner = registry.create(
        "loom", state, graph=graph, workload=workload, window_size=10, seed=seed
    )
    partitioner.ingest_batch(events if complete else events[: len(events) // 2])

    engine = ServingEngine(graph, state, workload)
    shard = engine.server.stores
    assert shard._label_of is engine.stores._label_of
    assert shard._partition_of is state.assignment_vector
    _index, members, ghosts = boot_snapshot(graph, state, 1)
    booted = ShardStores.from_rows(0, 1, k, members[0], ghosts[0])
    for name in _SHARD_FIELDS:
        if name != "_partition_of":
            assert getattr(shard, name) == getattr(booted, name), name
    assert {vid: shard.partition_of(vid) for vid in shard._label_of} == booted._partition_of
    assert engine.stores.take_new_vertices() == []  # the cold pass queues no rows


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(), reason="needs fork")
def test_spawn_boot_matches_fork():
    """Under spawn the snapshot is pickled into each server — the only boot
    path on a platform without fork.  Answers, hops and shard stats equal
    the fork cluster's."""
    graph, workload = _random_case()
    state = _partition("loom", graph, workload, k=4)
    runs = []
    for method in ("fork", "spawn"):
        with LiveCluster(
            graph, state, workload, num_shards=2, cache=True, start_method=method
        ) as cluster:
            report = cluster.execute_workload("loom")
            runs.append((_report_rows(report), [s.as_dict() for s in cluster.shard_stats()]))
    assert runs[1] == runs[0]
    assert sum(row[4] for row in runs[0][0]) > 0  # hops crossed shards


# ----------------------------------------------------------------------
# Rounds before the first request: nothing cached, nothing to invalidate
# ----------------------------------------------------------------------
class _Tap:
    """A transport that records every message through it, both ways."""

    def __init__(self, transport):
        self.transport, self.sent, self.received = transport, [], []

    def put(self, shard, message):
        self.sent.append(message)
        self.transport.put(shard, message)

    def next_message(self, deadline):
        message = self.transport.next_message(deadline)
        self.received.append(message)
        return message

    def __getattr__(self, name):  # queue_depths, close
        return getattr(self.transport, name)


class _TappedCluster(LiveCluster):
    """Records every message the driver sends and receives, boot included."""

    def _boot(self, transport):
        tap = _Tap(transport)
        self.sent, self.received = tap.sent, tap.received
        super()._boot(tap)


def _wave_traffic(cluster):
    """The invalidation-wave messages tapped so far: hops sent, forwards acked."""
    hops = [m for m in cluster.sent if isinstance(m, InvalidationHops)]
    forwards = [m for m in cluster.received if isinstance(m, IngestAck) and m.forwards]
    return hops, forwards


def test_bootstrap_sends_no_invalidation_wave():
    """Booting over a partitioned graph sends no message at all — each
    shard's slice rides in its ServeSpec and comes back as a round-0 ack.
    An ingest round before the first request still skips the wave (every
    cache is empty cluster-wide), and the shards end up exactly as in a
    cache-less cluster."""
    graph, workload = _random_case()
    first, rest = batched(list(stream_edges(graph, "random", seed=3)), 90)

    def boot(cache):
        state = PartitionState.for_graph(4, graph.num_vertices)
        partitioner = registry.create("hash", state, graph=graph, workload=workload, seed=0)
        partitioner.ingest_batch(first)
        streamed = LabelledGraph("live")
        for event in first:
            streamed.add_edge(event.u, event.v, event.u_label, event.v_label)
        return _TappedCluster(
            streamed, state, workload, num_shards=2, cache=cache, partitioner=partitioner
        )

    stats = {}
    for cache in (True, False):
        with boot(cache) as cluster:
            assert cluster.sent == []
            assert [(m.seq, m.forwards) for m in cluster.received] == [(0, ())] * 2
            assert all(isinstance(m, IngestAck) for m in cluster.received)
            cluster.ingest(rest)
            updates = [m for m in cluster.sent if isinstance(m, EdgeUpdate)]
            assert len(updates) == 2 and not any(m.invalidate for m in updates)
            assert _wave_traffic(cluster) == ([], [])
            stats[cache] = [shard.as_dict() for shard in cluster.shard_stats()]
    cached_stats, plain_stats = stats[True], stats[False]
    assert [(s["seq"], s["ingest_rounds"]) for s in cached_stats] == [(1, 2)] * 2
    assert sum(shard["border_edges"] for shard in cached_stats) > 0  # waves had work to skip
    for with_cache, without in zip(cached_stats, plain_stats):
        assert with_cache.pop("cache_stats") == {
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "hit_rate": 0.0,
        }
        assert without.pop("cache_stats") is None
        assert with_cache == without


def test_invalidation_starts_with_the_first_request():
    """Ingest rounds before any request skip the wave; every round after
    one runs it — and from there on the cluster's cache counters are the
    single-process engine's."""
    graph, workload = _random_case()
    early, more, late = batched(list(stream_edges(graph, "random", seed=3)), 50)

    def server(cls, **kwargs):
        state = PartitionState.for_graph(4, graph.num_vertices)
        partitioner = registry.create("hash", state, graph=graph, workload=workload, seed=0)
        return cls(LabelledGraph("live"), state, workload, partitioner=partitioner, **kwargs)

    def serve_all(target):
        return [
            (name, root, target.serve_root(name, root).embeddings)
            for name in target.query_names()
            for root in target.root_candidates(name)
        ]

    engine = server(ServingEngine, cache=True)
    with server(_TappedCluster, num_shards=2, cache=True) as cluster:
        for batch in (early, more):
            assert cluster.ingest(batch) == engine.ingest(batch)
        assert not any(m.invalidate for m in cluster.sent if isinstance(m, EdgeUpdate))
        assert _wave_traffic(cluster) == ([], [])
        assert [s.cache_stats["invalidations"] for s in cluster.shard_stats()] == [0, 0]

        assert serve_all(cluster) == serve_all(engine)  # fills the caches
        del cluster.sent[:]
        assert cluster.ingest(late) == engine.ingest(late)
        assert all(m.invalidate for m in cluster.sent if isinstance(m, EdgeUpdate))
        hops, forwards = _wave_traffic(cluster)
        assert hops and forwards
        assert serve_all(cluster) == serve_all(engine)
        invalidated = sum(s.cache_stats["invalidations"] for s in cluster.shard_stats())
        assert invalidated == engine.cache.invalidations > 0


# ----------------------------------------------------------------------
# The cache epoch guard, on a ShardServer driven in-process
# ----------------------------------------------------------------------
def test_cache_put_epoch_guard_accepts_current_and_counts_rejects():
    """A write-back is adopted only at the epoch it was assembled in and
    under the plan signature the shard knows; every discard is counted."""
    server = ShardServer(ServeSpec(shard_id=0, num_shards=1, k=1, query_depths=(("ab", 1),)))
    plan = CompiledPlan("ab", (0, 1), ((), (0,)), 1, (0, 1))
    # a(0) — b(1) — a(2), all in partition 0; roots of "ab" are 0 and 2.
    server.handle_ingest_message(
        EdgeUpdate(0, ((0, 0, 0), (1, 1, 0), (2, 0, 0)), ((0, 0, 0, 1, 1, 0), (1, 1, 0, 2, 0, 0)))
    )

    def assembled(root):  # not what local execution would return: hits are telling
        return RootResult("ab", root, ((root, 99),), 7, 7)

    # Current epoch, first signature this shard sees: adopted, served back.
    server.handle_request_message(CachePut("ab", plan.signature, 0, assembled(0), server.seq))
    reply = server.handle_request_message(QueryRequest(1, plan, 0, 0))
    assert reply.cached is True and reply.result == assembled(0)
    assert server.stats_snapshot().cache_rejects == 0

    # One more round (even an empty one) moves the epoch: the same put is stale.
    stale = server.seq
    server.handle_ingest_message(EdgeUpdate(stale + 1))
    server.handle_request_message(CachePut("ab", plan.signature, 2, assembled(2), stale))
    assert ("ab", 2) not in server.cache
    assert server.stats_snapshot().cache_rejects == 1

    # Current epoch but another plan signature than the one adopted above.
    server.handle_request_message(CachePut("ab", (1, 0), 2, assembled(2), server.seq))
    assert ("ab", 2) not in server.cache
    stats = server.stats_snapshot()
    assert stats.cache_rejects == 2 and stats.as_dict()["cache_rejects"] == 2
    assert server.stats_report().metrics["cache_rejects"] == 2

    # The guard discards; it does not poison: the current put still lands.
    server.handle_request_message(CachePut("ab", plan.signature, 2, assembled(2), server.seq))
    assert server.cache.get(("ab", 2)) == assembled(2)


def test_cluster_stats_surface_cache_rejects():
    graph, workload = _random_case()
    state = _partition("hash", graph, workload, k=4)
    with LiveCluster(graph, state, workload, num_shards=2) as cluster:
        assert [shard["cache_rejects"] for shard in cluster.stats()["shards"]] == [0, 0]


@pytest.mark.parametrize("obs_on", [True, False])
def test_shards_report_stats_every_fourth_round_only_with_obs(obs_on):
    """With obs on, every shard ships a StatsReport after each fourth
    ingest round (the boot snapshot is round 1, so the third ``ingest``
    triggers the first) and ``stats()`` folds them in under ``reports``;
    with obs off no shard ever ships one."""
    graph, workload = _random_case()
    rounds = list(batched(list(stream_edges(graph, "random", seed=3)), 45))
    if obs_on:
        obs.enable()
    try:
        state = PartitionState.for_graph(4, graph.num_vertices)
        partitioner = registry.create("hash", state, graph=graph, workload=workload, seed=0)
        with LiveCluster(
            LabelledGraph("live"), state, workload, num_shards=2, partitioner=partitioner
        ) as cluster:
            for chunk in rounds[:2]:
                cluster.ingest(chunk)
            cluster.stats()
            assert cluster.stats_reports == {}
            cluster.ingest(rounds[2])
            stats = cluster.stats()
            if obs_on:
                assert sorted(stats["reports"]) == ["shard0", "shard1"]
                assert [m.seq for _, m in sorted(cluster.stats_reports.items())] == [3, 3]
            else:
                assert "reports" not in stats
                assert cluster.stats_reports == {}
    finally:
        obs.disable()


# ----------------------------------------------------------------------
# Failure surface: death and poison become diagnosable errors
# ----------------------------------------------------------------------
def test_killed_server_raises_with_signal_name_quickly():
    graph, workload = _random_case()
    state = _partition("ldg", graph, workload, k=4)
    with LiveCluster(graph, state, workload, num_shards=2) as cluster:
        driver = TrafficDriver(cluster, seed=2)
        requests = driver.sample(200)
        victim = cluster._transport._servers[0]
        os.kill(victim.pid, signal.SIGKILL)
        start = time.monotonic()
        with pytest.raises(ShardProcessError) as excinfo:
            for name, root in requests:
                cluster.serve_root(name, root)
        elapsed = time.monotonic() - start
    assert elapsed < 30.0, "dead server must surface fast, not via timeout"
    assert excinfo.value.shard_id == 0
    assert "SIGKILL" in str(excinfo.value)
    assert excinfo.value.remote_traceback is None  # died without reporting


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(), reason="needs fork")
def test_shard_failing_at_boot_raises_and_leaves_no_server(monkeypatch):
    """A shard that raises while building its stores from the snapshot
    surfaces as ShardProcessError with the remote traceback, within
    seconds, and the constructor leaves no server process behind."""
    graph, workload = _random_case()
    state = _partition("hash", graph, workload, k=4)
    from_rows = ShardStores.from_rows.__func__

    def failing(cls, shard_id, *args):
        if shard_id == 1:
            raise ValueError("injected boot failure")
        return from_rows(cls, shard_id, *args)

    # The fork child inherits the patch.
    monkeypatch.setattr(ShardStores, "from_rows", classmethod(failing))
    start = time.monotonic()
    with pytest.raises(ShardProcessError) as excinfo:
        LiveCluster(graph, state, workload, num_shards=2, start_method="fork")
    assert time.monotonic() - start < 10.0
    assert excinfo.value.shard_id == 1
    assert "injected boot failure" in excinfo.value.remote_traceback
    assert not [p for p in mp.active_children() if p.name.startswith("loom-serve-")]


@pytest.mark.parametrize("backend", ["engine", "cluster"])
def test_cache_object_is_refused_before_anything_starts(backend, monkeypatch):
    """``cache`` is a flag on both back ends.  A ``ResultCache`` — falsy
    while empty, so it would have read as "off" — raises ``TypeError``
    before the cluster cuts its snapshot or starts a server."""
    graph, workload = _random_case()
    state = _partition("hash", graph, workload, k=4)

    def no_snapshot(*args):
        raise AssertionError("boot_snapshot ran before the cache check")

    monkeypatch.setattr("repro.runtime.live.boot_snapshot", no_snapshot)
    with pytest.raises(TypeError, match="cache is a bool, not ResultCache"):
        if backend == "engine":
            ServingEngine(graph, state, workload, cache=ResultCache())
        else:
            LiveCluster(graph, state, workload, num_shards=2, cache=ResultCache())
    assert not [p for p in mp.active_children() if p.name.startswith("loom-serve-")]


def test_poison_message_surfaces_remote_traceback():
    graph, workload = _random_case()
    state = _partition("ldg", graph, workload, k=4)
    with LiveCluster(graph, state, workload, num_shards=2) as cluster:
        cluster._transport._request_queues[0].put("not a wire message")
        with pytest.raises(ShardProcessError) as excinfo:
            # Keep serving until the failure envelope comes back.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                for name in cluster.query_names():
                    for root in cluster.root_candidates(name):
                        cluster.serve_root(name, root)
    assert excinfo.value.shard_id == 0
    assert excinfo.value.remote_traceback is not None
    assert "Traceback" in excinfo.value.remote_traceback


# ----------------------------------------------------------------------
# Wire discipline: slots, tuple encodings, schema version
# ----------------------------------------------------------------------
_WIRE_SAMPLES = [
    ServeSpec(
        shard_id=1,
        num_shards=4,
        k=8,
        query_depths=(("abc", 2),),
        members=((5, 0, 1, [6]),),
        ghosts=((6, 1, 2),),
    ),
    EdgeUpdate(3, ((5, 0, 1),), ((5, 0, 1, 6, 1, 2),), ("abc",), False),
    InvalidationHops(3, ((7, 1), (9, 2))),
    IngestAck(1, 3, 2, ((7, 1, 0),)),
    QueryRequest(11, None, 5, 1),
    StepRequest(11, 2, None, None),
    StepReply(11, 2, 1, 3, (), cached=False, result=None),
    CachePut("abc", (0, 1, 2), 5, None, 3),
    StatsRequest(1),
    ServerStats(1, 3, 10, 2, 20, 4, 7, 3, 3, 5, {"hits": 1}),
    StatsReport(1, 3, {"requests_served": 7}),
    ServerFailure(1, "ValueError: boom", "Traceback ..."),
]


def test_wire_samples_cover_every_wire_type():
    assert {type(message) for message in _WIRE_SAMPLES} == set(WIRE_TYPES)


@pytest.mark.parametrize(
    "message", _WIRE_SAMPLES, ids=[type(m).__name__ for m in _WIRE_SAMPLES]
)
def test_wire_messages_pickle_roundtrip_without_dict(message):
    assert not hasattr(message, "__dict__"), "wire types must be __slots__-only"
    clone = pickle.loads(pickle.dumps(message))
    for slot in type(message).__slots__:
        assert getattr(clone, slot) == getattr(message, slot)
    check_schema(clone)  # current-version messages pass


def test_benchmarked_messages_pickle_to_pinned_bytes():
    """``runtime.messages.bytes_per_msg`` weighs these four shapes (see
    ``e2e_layers.pass_runtime``); digests taken before the schema moved
    into field tables, so a table edit cannot silently change the wire."""
    plan = CompiledPlan("q", (0, 1, 0, 2), ((), (0,), (1,), (2,)), 3, (0, 1, 2, 3))
    segment = LiteralSegment()
    segment.embeddings = [(17, 23 + i, 29, 31 + i) for i in range(5)]
    rows = tuple((i, i % 7, i % 8, i + 1, (i + 1) % 7, (i + 1) % 8) for i in range(1024))
    messages = [
        QueryRequest(1, plan, 17, 3),
        StepRequest(1, 2, plan, Continuation(2, (17, 23, -1, -1), (3, 5, -1, -1), 1, 5)),
        StepReply(1, 2, 0, 9, (segment,), None),
        EdgeUpdate(9, (), rows),
    ]
    pickled = [pickle.dumps(message, 5) for message in messages]
    assert [len(data) for data in pickled] == [157, 228, 182, 16962]
    assert [hashlib.sha256(data).hexdigest() for data in pickled] == [
        "e994117f7efcffa66cdf8b9d1b8340add75ab2d7b59c01830af1881912b992ec",
        "db92c2305e9c949035541a5a171ed58424b45d3955be6b02c6ea4fa1470e1c2d",
        "2877a7a0825d24d525bc20d7938bd1b37d7dc4cd5e1002feba48a3e4004a4a56",
        "bc490cb51d3bc259eca1738e9d8f0934ef4f1bd3440f9b9f66eee55ddc1715b2",
    ]


def test_every_wire_type_declares_slots_and_schema_version():
    for cls in WIRE_TYPES:
        assert hasattr(cls, "__slots__"), cls.__name__
        assert getattr(cls, "schema_version", None) == SCHEMA_VERSION, cls.__name__
        assert "__reduce__" in cls.__dict__, cls.__name__


def test_schema_mismatch_is_rejected():
    class Future:
        schema_version = SCHEMA_VERSION + 1

    with pytest.raises(RuntimeError, match="schema mismatch"):
        check_schema(Future())
    check_schema(ServerFailure(0, "boom", "tb"))  # same version passes

    class PreviousEdgeUpdate(EdgeUpdate):
        """A peer from before the ``invalidate`` field."""

        __slots__ = ()
        schema_version = SCHEMA_VERSION - 1

    with pytest.raises(RuntimeError, match="schema mismatch"):
        check_schema(PreviousEdgeUpdate(0))
    assert EdgeUpdate(0).invalidate is True  # unless the driver says otherwise


def test_detlint_mp_pickle_scope_covers_live_modules():
    """The MP-pickle rule must patrol every module that touches a queue."""
    from repro.analysis.engine import rule_applies

    for path in (
        "src/repro/runtime/server.py",
        "src/repro/runtime/live.py",
        "src/repro/runtime/messages.py",
        "src/repro/runtime/frontend.py",
        "src/repro/runtime/transport.py",
    ):
        assert rule_applies("MP-pickle", path), path


# ----------------------------------------------------------------------
# RoutingIndex: the driver's index is the engine's, built three ways
# ----------------------------------------------------------------------
def test_routing_index_agrees_with_serving_stores():
    """``RoutingIndex.from_state``, a cluster's boot snapshot and an
    engine's cold build index the same vertices, edges and candidates."""
    graph, workload = _random_case()
    state = _partition("fennel", graph, workload, k=4)
    stores = ServingEngine(graph, state, workload).stores
    for index in (RoutingIndex.from_state(graph, state), boot_snapshot(graph, state, 2)[0]):
        assert index.num_vertices == stores.num_vertices
        assert index.num_edges == stores.num_edges
        assert index.num_border_edges == stores.num_border_edges
        for label_id in range(len(graph.label_set())):
            assert index.all_candidates(label_id) == stores.all_candidates(label_id)
            assert index.candidate_counts(label_id) == stores.candidate_counts(label_id)
            for p in range(state.k):
                assert index.candidates(p, label_id) == stores.candidates(p, label_id)
