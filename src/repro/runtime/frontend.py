"""The serving driver, written once over a transport.

:class:`ServingFrontEnd` is everything serving does outside the shard
servers (:class:`~repro.runtime.server.ShardServer`: adjacency, result
cache, invalidation BFS), which it reaches through a transport
(:mod:`repro.runtime.transport`).  :class:`~repro.serving.engine.ServingEngine`
boots it over one in-process server, :class:`~repro.runtime.live.LiveCluster`
over one server process per shard — so the two answer, admit and account
identically by construction.

Every ingest is a **barriered round**: the driver partitions a batch,
derives the visible edge delta, and sends every shard an
:class:`~repro.runtime.messages.EdgeUpdate` (possibly empty — the
sequence number advances uniformly, which is what the cache-epoch rule
compares).  Acks return cache-invalidation *forwards* — ghost vertices a
shard's radius-BFS settled that another shard owns — and the driver
relays them as :class:`~repro.runtime.messages.InvalidationHops` waves
until the frontier is dry.

Serving is a **continuation pipeline**: a root request goes to the root
owner; the shard executes as far as it can see and returns ordered
segments (or, when it could finish alone, the whole result); every
embedded :class:`~repro.serving.execution.Continuation` becomes a
:class:`~repro.runtime.messages.StepRequest` to the shard that owns the
next expansion — the cross-partition hop as an actual message — and the
driver splices resolved subtrees back in DFS order.  Results assembled
from several shards are written back to the root owner's cache with an
epoch guard.  A root that is negative, never interned or unassigned is
answered here, empty: no shard holds it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.graph.labelled_graph import LabelledGraph, Vertex
from repro.graph.stream import EdgeEvent
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.state import UNASSIGNED, PartitionState
from repro.query.isomorphism import search_plan
from repro.query.workload import Workload
from repro.runtime.messages import (
    CachePut,
    IngestAck,
    InvalidationHops,
    QueryRequest,
    ServerStats,
    StatsReport,
    StatsRequest,
    StepReply,
    StepRequest,
    edge_updates,
    shard_of_partition,
)
from repro.serving.execution import CompiledPlan, Continuation, RootResult, splice_segments
from repro.serving.router import Router, create_router
from repro.serving.stores import RoutingIndex


def check_cache_flag(cache: object) -> None:
    """``cache`` is a flag: an empty ResultCache is falsy and would read as
    "off".  Checked before a deployment builds anything."""
    if cache is not None and not isinstance(cache, bool):
        raise TypeError(f"cache is a bool, not {type(cache).__name__}")


@dataclass
class QueryServeReport:
    """Serving outcome for one workload query (all roots, full enumeration)."""

    name: str
    frequency: float
    embeddings: int
    traversals: int
    hops: int
    border_expansions: int
    partitions_contacted: int
    roots_scanned: int
    cache_hits: int
    cache_misses: int

    @property
    def weighted_hops(self) -> float:
        """Frequency-weighted hops — the serving twin of ``weighted_ipt``."""
        return self.frequency * self.hops


@dataclass
class ServeReport:
    """Serving outcome for a whole workload against one partitioning."""

    system: str
    queries: List[QueryServeReport] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def weighted_hops(self) -> float:
        """Must equal ``ExecutionReport.weighted_ipt`` on full enumeration."""
        return sum(q.weighted_hops for q in self.queries)

    @property
    def total_hops(self) -> int:
        return sum(q.hops for q in self.queries)

    @property
    def total_partitions_contacted(self) -> int:
        return sum(q.partitions_contacted for q in self.queries)


class _CompiledQuery:
    """One workload query lowered onto interner ids: slots, anchors, labels."""

    __slots__ = (
        "name",
        "frequency",
        "pattern",
        "label_ids",
        "anchors",
        "depth",
        "signature",
        "compiled",
    )

    def __init__(
        self,
        entry,
        graph: LabelledGraph,
        index: RoutingIndex,
        label_counts: Optional[Dict[str, int]] = None,
    ) -> None:
        self.name = entry.pattern.name
        self.frequency = entry.frequency
        self.pattern = entry.pattern
        plan = search_plan(entry.pattern, graph, label_counts)
        slot_of = {pv: i for i, (pv, _anchors) in enumerate(plan)}
        #: Wanted label id per slot, in plan order.
        self.label_ids: List[int] = [
            index.labels.intern(entry.pattern.label(pv)) for pv, _a in plan
        ]
        #: Earlier-slot indices each slot must be adjacent to (slot 0: none).
        self.anchors: List[List[int]] = [[slot_of[a] for a in anchors] for _pv, anchors in plan]
        #: The cache-invalidation radius: an embedding rooted at r reaches
        #: any of its vertices through at most |Eq| data edges.
        self.depth = entry.pattern.num_edges
        #: Plan identity — graph growth can shift the rarest-label root
        #: slot, which changes what "root" means for cached entries.
        self.signature = tuple(pv for pv, _a in plan)
        #: The wire-friendly core shared with shard-side execution.
        self.compiled = CompiledPlan(
            self.name, self.label_ids, self.anchors, self.depth, self.signature
        )


class _PendingRequest:
    """Driver-side state of one in-flight ``(query, root)`` request."""

    __slots__ = (
        "request_id",
        "query",
        "root",
        "partition",
        "plan",
        "root_segments",
        "steps",
        "dispatched_steps",
        "seqs",
        "cached",
        "t0",
    )

    def __init__(self, request_id: int, query: str, root: int, partition: int, plan) -> None:
        self.request_id = request_id
        self.query = query
        self.root = root
        self.partition = partition
        self.plan = plan
        #: The root step's segment list, once it arrived.
        self.root_segments: Optional[List[object]] = None
        #: step id → resolved segment list, each continuation replaced by
        #: the id of the step dispatched for it.
        self.steps: Dict[int, List[object]] = {}
        self.dispatched_steps = 0
        self.seqs: set = set()
        self.cached: Optional[bool] = None
        #: perf_counter at submit, for the ``serving`` window (obs on only).
        self.t0 = 0.0


class ServingFrontEnd:
    """Plans, admission, whole-workload execution, the request protocol
    (:meth:`submit` / :meth:`poll_completed`), round publishing, cache
    accounting and per-request obs, over ``num_shards`` shard servers.

    A deployment builds ``index`` and its shards' stores, calls this
    constructor, then :meth:`_boot` with its transport.
    """

    #: First component of this deployment's obs names (``<prefix>.hops.*``,
    #: ``<prefix>.requests``, the ``<prefix>.route`` / ``<prefix>.hop``
    #: trace events).
    obs_prefix = "serve"
    #: Trace event of each completed request.
    done_event = "serve.done"

    def __init__(
        self,
        graph: LabelledGraph,
        state: PartitionState,
        workload: Workload,
        index: RoutingIndex,
        router: Union[Router, str],
        partitioner: Optional[StreamingPartitioner],
        *,
        num_shards: int,
        cache: bool,
        request_timeout: float = 120.0,
    ) -> None:
        if partitioner is not None and partitioner.state is not state:
            raise ValueError(f"partitioner must share {type(self).__name__}'s PartitionState")
        self.graph = graph
        self.state = state
        self.workload = workload
        self.index = index
        self.router = create_router(router) if isinstance(router, str) else router
        self.partitioner = partitioner
        self.num_shards = num_shards
        self.cache_enabled = bool(cache)
        self.request_timeout = request_timeout
        # The graph's label histogram, maintained incrementally by ingest:
        # recompiling plans per batch must not rescan every vertex.
        self._label_counts = graph.label_counts()
        self._queries: Dict[str, _CompiledQuery] = {}
        self._compile_plans()

        #: The boot snapshot is round 0; each later ingest round adds one.
        self._seq = 0
        self._next_request_id = 0
        self._pending: Dict[int, _PendingRequest] = {}
        self._completed: "deque[int]" = deque()
        #: request id → (result, shard-reported cache flag: True hit / False
        #: miss / None when caching is off or the root was answered here).
        self._results: Dict[int, Tuple[RootResult, Optional[bool]]] = {}
        #: Replies set aside by a barrier or a stats probe, oldest first.
        self._inbox: "deque[object]" = deque()
        #: Inter-shard hop messages (StepRequests) sent so far.
        self.hop_messages_sent = 0
        self.requests_completed = 0
        #: Shard-reported root-step cache flags, summed (``_cache_counts``).
        self._cache_hits = 0
        self._cache_misses = 0
        #: Cache flag of the most recent :meth:`wait` completion.
        self.last_cached: Optional[bool] = None
        #: shard id → latest unsolicited StatsReport (intercepted by the
        #: message loop; never interleaves with serving replies).
        self.stats_reports: Dict[int, StatsReport] = {}
        self._transport = None

        # Observability (repro.obs): bound at construction; NULL stubs
        # when disabled, so a request pays a flag check and a few no-op
        # calls.  Each completed request charges its hops to (query, root
        # label id, root partition) — the per-partition signal the hot-
        # border items (ROADMAP 4d / 6e) need — joined via a collector.
        self._obs_on = obs.enabled()
        self._trace = obs.tracer()
        self._trace_on = self._trace.enabled
        self._hop_attribution: Dict[Tuple[str, int, int], int] = {}
        obs.register_collector(f"{self.obs_prefix}.hops", self._hop_metrics)
        self._obs_window = obs.window("serving")
        self._c_requests = obs.counter(f"{self.obs_prefix}.requests")
        self._c_cache_hits = obs.counter(f"{self.obs_prefix}.cache_hits")
        self._c_cache_misses = obs.counter(f"{self.obs_prefix}.cache_misses")
        self._c_hops = obs.counter(f"{self.obs_prefix}.hop_messages")

    def _query_depths(self) -> Tuple[Tuple[str, int], ...]:
        """``(query, invalidation radius)`` rows of a shard's ServeSpec."""
        return tuple(sorted((name, plan.depth) for name, plan in self._queries.items()))

    def _boot(self, transport) -> None:
        """Adopt ``transport`` and wait for every shard's round-0 ack: the
        constructor returns a ready deployment, or closes and raises."""
        self._transport = transport
        try:
            self._barrier(set(range(self.num_shards)))
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Plan compilation
    # ------------------------------------------------------------------
    def _compile_plans(self) -> Tuple[str, ...]:
        """(Re)compile every query plan against the current graph.

        Label rarity drives the root-slot choice, so graph growth can
        reorder a plan.  Returns the queries whose root slot moved: entries
        cached under the old root meaning must be dropped wholesale — the
        radius rule cannot cover a re-rooting.
        """
        dropped: List[str] = []
        for entry in self.workload:
            compiled = _CompiledQuery(entry, self.graph, self.index, self._label_counts)
            previous = self._queries.get(compiled.name)
            if previous is not None and previous.signature != compiled.signature:
                dropped.append(compiled.name)
            self._queries[compiled.name] = compiled
        return tuple(dropped)

    def query_names(self) -> List[str]:
        return list(self._queries)

    def root_label_id(self, query_name: str) -> int:
        return self._plan(query_name).label_ids[0]

    def root_candidates(self, query_name: str) -> List[int]:
        """All stored root-candidate ids for a query, across partitions
        (the traffic surface)."""
        return self.index.all_candidates(self.root_label_id(query_name))

    def _plan(self, query_name: str) -> _CompiledQuery:
        plan = self._queries.get(query_name)
        if plan is None:
            raise KeyError(f"no query named {query_name!r}; workload has {self.query_names()}")
        return plan

    # ------------------------------------------------------------------
    # Whole-workload execution (the equivalence surface)
    # ------------------------------------------------------------------
    def execute_query(self, query_name: str) -> QueryServeReport:
        """Full enumeration of one query: route, scan roots, serve each.

        Same router over the same candidate counts and the same root order
        on either deployment, so hops and embeddings are comparable entry
        by entry."""
        plan = self._plan(query_name)
        root_label = plan.label_ids[0]
        partitions = self.router.route(self.index, root_label)
        embeddings = traversals = hops = border = roots = 0
        hits0, misses0 = self._cache_counts()
        num_edges = plan.pattern.num_edges
        for partition in partitions:
            for root in self.index.candidates(partition, root_label):
                result = self.serve_root(query_name, root)
                roots += 1
                embeddings += result.num_embeddings
                traversals += result.num_embeddings * num_edges
                hops += result.hops
                border += result.border_expansions
        hits, misses = self._cache_counts()
        return QueryServeReport(
            name=plan.name,
            frequency=plan.frequency,
            embeddings=embeddings,
            traversals=traversals,
            hops=hops,
            border_expansions=border,
            partitions_contacted=len(partitions),
            roots_scanned=roots,
            cache_hits=hits - hits0,
            cache_misses=misses - misses0,
        )

    def execute_workload(self, system: str = "") -> ServeReport:
        """Serve every workload query in full — the executor-equivalent pass."""
        start = time.perf_counter()
        report = ServeReport(system=system)
        for name in self._queries:
            report.queries.append(self.execute_query(name))
        report.seconds = time.perf_counter() - start
        return report

    # ------------------------------------------------------------------
    # Online ingest (composes with StreamingPartitioner.ingest_batch)
    # ------------------------------------------------------------------
    def ingest(self, events: Iterable[EdgeEvent]) -> int:
        """Stream a batch: partition it, grow the index, publish the delta.

        Returns the number of edges that became *visible* (both endpoints
        placed) this round; edges with an endpoint Loom still holds — in
        its window or in its deferral queue — wait in the index's pending
        buffer until a later round or :meth:`finalize` places them.

        This is the one dedup point: only the events the graph reports new
        reach the index, so a repeated edge — within a batch, across
        batches, or of an edge the cold build holds — is neither admitted
        nor buffered twice.  A batch holding an event the graph would
        refuse raises ``ValueError`` before anything changes.
        """
        if self.partitioner is None:
            raise ValueError(f"{type(self).__name__} has no partitioner attached; cannot ingest")
        batch = list(events)
        new_labels = self._new_vertex_labels(batch)
        self.partitioner.ingest_batch(batch)
        label_counts = self._label_counts
        for label in new_labels:
            label_counts[label] = label_counts.get(label, 0) + 1
        add_edge = self.graph.add_edge
        fresh = [e for e in batch if add_edge(e.u, e.v, e.u_label, e.v_label)]
        new_edges = []
        for event in fresh:
            pair = self.index.ingest_edge(event)
            if pair is not None:
                new_edges.append(pair)
        new_edges.extend(self.index.flush_pending())
        # Plans first: label counts moved, so root slots may have too; the
        # round is then published under the new plans.
        self._publish(new_edges, self._compile_plans() if new_edges else ())
        if self._trace_on:
            self._trace.event("serve.ingest", n=len(batch), visible=len(new_edges))
        return len(new_edges)

    def _new_vertex_labels(self, batch: List[EdgeEvent]) -> List[str]:
        """The label of each vertex of ``batch`` the graph does not hold yet.

        Checks the whole batch first, so that a bad event mutates nothing:
        ``ValueError`` names the first self-loop, or the first vertex
        labelled unlike the graph or an earlier event of the batch.
        """
        graph = self.graph
        seen: Dict[Vertex, str] = {}
        new_labels: List[str] = []
        for event in batch:
            if event.u == event.v:
                raise ValueError(f"ingest batch holds a self-loop: {event!r}")
            for v, label in ((event.u, event.u_label), (event.v, event.v_label)):
                known = seen.get(v)
                if known is None:
                    if graph.has_vertex(v):
                        known = graph.label(v)
                    else:
                        known = label
                        new_labels.append(label)
                    seen[v] = known
                if known != label:
                    raise ValueError(
                        f"ingest batch relabels vertex {v!r} from {known!r} to {label!r}: {event!r}"
                    )
        return new_labels

    def finalize(self) -> int:
        """Drain the partitioner (Loom's window) and flush pending edges."""
        if self.partitioner is not None:
            self.partitioner.finalize()
        new_edges = self.index.flush_pending()
        self._publish(new_edges, self._compile_plans() if new_edges else ())
        return len(new_edges)

    def _publish(self, new_edges: Sequence[Tuple[int, int]], dropped: Tuple[str, ...]) -> None:
        """Ship the round's delta as one barriered EdgeUpdate round — also
        when nothing became visible, so the epoch advances uniformly — and
        relay its invalidation waves.  ``dropped`` names the queries the
        round re-rooted (entries cached under the old root are void).

        Until the first :meth:`submit` no shard has executed a root or
        accepted a :class:`CachePut`, so every cache is empty and the round
        tells the shards to skip the wave.  Only the driver can know that:
        a shard whose own cache is empty still has to run its BFS, because
        the ghosts it settles may be cached roots on another shard.
        """
        self._seq += 1
        updates = edge_updates(
            self.index, self.num_shards, self._seq, new_edges, dropped, self._next_request_id > 0
        )
        for shard, update in enumerate(updates):
            self._transport.put(shard, update)
        self._barrier(set(range(self.num_shards)))

    def _barrier(self, expected: set) -> None:
        """Collect one IngestAck per contacted shard; relay invalidation
        forwards as waves until the frontier is dry.  Step replies arriving
        mid-barrier (free-running serve traffic) are set aside, not lost."""
        deadline = time.monotonic() + self.request_timeout
        stash: List[object] = []
        while True:
            forwards: List[Tuple[int, int, int]] = []
            waiting = set(expected)
            while waiting:
                message = self._next_message(deadline)
                if isinstance(message, IngestAck):
                    if message.seq != self._seq:  # pragma: no cover - barrier invariant
                        raise RuntimeError(f"ack for seq {message.seq} during round {self._seq}")
                    waiting.discard(message.shard_id)
                    forwards.extend(message.forwards)
                else:
                    stash.append(message)
            if not forwards:
                break
            # Route each settled ghost to its owner, best (smallest) distance
            # per vertex, in sorted order — the wave stays bit-stable.
            best: Dict[int, Tuple[int, int]] = {}
            for vid, dist, partition in forwards:
                if vid not in best or dist < best[vid][0]:
                    best[vid] = (dist, partition)
            per_shard: Dict[int, List[Tuple[int, int]]] = {}
            for vid in sorted(best):
                dist, partition = best[vid]
                per_shard.setdefault(shard_of_partition(partition, self.num_shards), []).append(
                    (vid, dist)
                )
            expected = set(per_shard)
            for shard in sorted(per_shard):
                self._transport.put(shard, InvalidationHops(self._seq, tuple(per_shard[shard])))
        self._inbox.extend(stash)

    def _next_message(self, deadline: float):
        """One *protocol* message: set-aside replies first, then the
        transport's.

        Out-of-band telemetry (:class:`StatsReport`) is absorbed here —
        every consumer (serve loop, barrier, stats probes) reads through
        this method, so unsolicited reports can never surface as an
        unexpected message or perturb reply order.
        """
        if self._inbox:
            return self._inbox.popleft()
        while True:
            message = self._transport.next_message(deadline)
            if isinstance(message, StatsReport):
                self.stats_reports[message.shard_id] = message
                continue
            return message

    # ------------------------------------------------------------------
    # Serving pipeline
    # ------------------------------------------------------------------
    def submit(self, query_name: str, root: int) -> int:
        """Dispatch one ``(query, root vertex id)`` request; returns its id.

        Up to the caller's chosen in-flight depth may be outstanding; pair
        with :meth:`poll_completed` / :meth:`wait`.  An unplaced root —
        negative, never interned or unassigned — is answered here, empty
        and without a cache entry: no shard holds it.
        """
        plan = self._plan(query_name).compiled
        request_id = self._next_request_id
        self._next_request_id += 1
        partition = self.state.partition_of_id(root)
        request = _PendingRequest(request_id, query_name, root, partition, plan)
        if self._obs_on:
            request.t0 = time.perf_counter()
        self._pending[request_id] = request
        if partition == UNASSIGNED or root not in self.index._label_of:
            self._finish(request, RootResult(query_name, root, (), 0, 0), cache_put=False)
            return request_id
        shard = shard_of_partition(partition, self.num_shards)
        if self._trace_on:
            self._trace.event(
                f"{self.obs_prefix}.route",
                request=request_id,
                query=query_name,
                root=root,
                partition=partition,
                shard=shard,
            )
        self._transport.put(shard, QueryRequest(request_id, plan, root, partition))
        return request_id

    def poll_completed(self) -> List[Tuple[int, RootResult, Optional[bool]]]:
        """Process replies until at least one request completes; drain
        every finished request as ``(request_id, result, cached)`` triples
        — ``cached`` is True on a cache hit, False on a miss and None when
        the cache is off or the root was answered here.  Past the request
        timeout it raises."""
        deadline = time.monotonic() + self.request_timeout
        while not self._completed and self._pending:
            self._process_reply(self._next_message(deadline))
        finished: List[Tuple[int, RootResult, Optional[bool]]] = []
        while self._completed:
            request_id = self._completed.popleft()
            finished.append((request_id, *self._results.pop(request_id)))
        return finished

    def wait(self, request_id: int) -> RootResult:
        """Block until ``request_id`` completes; returns its result.  The
        request's cache flag lands in :attr:`last_cached`."""
        deadline = time.monotonic() + self.request_timeout
        while request_id not in self._results:
            if request_id not in self._pending:
                raise KeyError(f"unknown or already-collected request {request_id}")
            self._process_reply(self._next_message(deadline))
        self._completed.remove(request_id)
        result, self.last_cached = self._results.pop(request_id)
        return result

    def serve_root(self, query_name: str, root: int) -> RootResult:
        """Serve one ``(query, root vertex id)`` request synchronously."""
        return self.wait(self.submit(query_name, root))

    def serve_vertex(self, query_name: str, root_vertex: Vertex) -> RootResult:
        """Vertex-keyed :meth:`serve_root` (the public request boundary)."""
        vid = self.state.interner.id_of(root_vertex)
        if vid is None:
            raise KeyError(f"unknown root vertex {root_vertex!r}")
        return self.serve_root(query_name, vid)

    def _cache_counts(self) -> Tuple[int, int]:
        """Cumulative ``(hits, misses)`` the shards reported."""
        return self._cache_hits, self._cache_misses

    def _process_reply(self, message) -> None:
        if not isinstance(message, StepReply):
            raise RuntimeError(f"unexpected message while serving: {message!r}")
        request = self._pending.get(message.request_id)
        if request is None:  # pragma: no cover - protocol invariant
            raise RuntimeError(f"reply for unknown request {message.request_id}")
        request.seqs.add(message.seq)
        if message.step_id == 0:
            request.cached = message.cached
            if message.result is not None:  # the root shard finished it alone
                self._finish(request, message.result, cache_put=False)
                return
            container: List[object] = list(message.segments)
            request.root_segments = container
        else:
            container = list(message.segments)
            request.steps[message.step_id] = container
        for i, segment in enumerate(container):
            if isinstance(segment, Continuation):
                request.dispatched_steps += 1
                step_id = request.dispatched_steps
                container[i] = step_id
                step = StepRequest(request.request_id, step_id, request.plan, segment)
                self.hop_messages_sent += 1
                self._c_hops.inc()
                if self._trace_on:
                    self._trace.event(
                        f"{self.obs_prefix}.hop",
                        request=request.request_id,
                        query=request.query,
                        step=step_id,
                        partition=segment.target_partition,
                    )
                self._transport.put(
                    shard_of_partition(segment.target_partition, self.num_shards), step
                )
        if request.root_segments is not None and len(request.steps) == request.dispatched_steps:
            embeddings, hops, border = self._fold(request, request.root_segments)
            result = RootResult(request.query, request.root, tuple(embeddings), hops, border)
            self._finish(request, result, cache_put=request.dispatched_steps > 0)

    def _fold(self, request: _PendingRequest, container: List[object]):
        """Splice ``container`` in DFS order; each step id is a resolved child."""
        return splice_segments(
            container, lambda step_id: self._fold(request, request.steps[step_id])
        )

    def _finish(self, request: _PendingRequest, result: RootResult, cache_put: bool) -> None:
        del self._pending[request.request_id]
        self._results[request.request_id] = (result, request.cached)
        self._completed.append(request.request_id)
        self.requests_completed += 1
        self._c_requests.inc()
        if request.cached is True:
            self._cache_hits += 1
            self._c_cache_hits.inc()
        elif request.cached is False:
            self._cache_misses += 1
            self._c_cache_misses.inc()
        if self._obs_on:
            # Out of band: the clock feeds only the window's latency; every
            # trace field is deterministic.
            latency_us = int((time.perf_counter() - request.t0) * 1e6)
            key = (request.query, request.plan.label_ids[0], request.partition)
            self._hop_attribution[key] = self._hop_attribution.get(key, 0) + result.hops
            self._obs_window.record(request.query, result.hops, latency_us)
            if self._trace_on:
                self._trace.event(
                    self.done_event,
                    request=request.request_id,
                    query=request.query,
                    root=request.root,
                    partition=request.partition,
                    hops=result.hops,
                    embeddings=result.num_embeddings,
                    steps=request.dispatched_steps,
                    cached=request.cached,
                )
        if cache_put and self.cache_enabled and len(request.seqs) == 1:
            # Multi-shard result: write it back to the root owner, epoch-
            # guarded by the one sequence number every step observed.
            put = CachePut(
                request.query,
                request.plan.signature,
                request.root,
                result,
                next(iter(request.seqs)),
            )
            self._transport.put(shard_of_partition(request.partition, self.num_shards), put)

    def _hop_metrics(self) -> Dict[str, int]:
        """Hop attribution as dotted names (``<query>.l<label>.p<part>``).

        Keys interpolate query names (workload strings) and ints — value
        forms, not object reprs — and insertion follows sorted key order.
        """
        hops = self._hop_attribution
        return {f"{q}.l{label}.p{p}": hops[q, label, p] for q, label, p in sorted(hops)}

    # ------------------------------------------------------------------
    # Stats / shutdown
    # ------------------------------------------------------------------
    def shard_stats(self) -> List[ServerStats]:
        """One ServerStats snapshot per shard (barriers on the replies)."""
        for shard in range(self.num_shards):
            self._transport.put(shard, StatsRequest(shard))
        deadline = time.monotonic() + self.request_timeout
        collected: Dict[int, ServerStats] = {}
        stash: List[object] = []
        while len(collected) < self.num_shards:
            message = self._next_message(deadline)
            if isinstance(message, ServerStats):
                collected[message.shard_id] = message
            else:
                stash.append(message)
        self._inbox.extend(stash)
        return [collected[shard] for shard in range(self.num_shards)]

    def stats(self) -> Dict[str, object]:
        """Deployment-wide counters: per-shard snapshots + driver-side truth.

        One tree, rendered everywhere through
        :func:`repro.obs.format.render_lines`; with obs enabled it folds
        in the driver registry snapshot (which includes hop attribution
        and any partitioner collectors) and the latest shipped
        :class:`StatsReport` per shard.
        """
        shards = self.shard_stats()
        out: Dict[str, object] = {
            "num_shards": self.num_shards,
            "seq": self._seq,
            "requests_completed": self.requests_completed,
            "hop_messages_sent": self.hop_messages_sent,
            "queue_depths": self._transport.queue_depths(),
            "index": {
                "vertices": self.index.num_vertices,
                "edges": self.index.num_edges,
                "border_edges": self.index.num_border_edges,
                "pending": self.index.num_pending,
            },
            "shards": [s.as_dict() for s in shards],
        }
        if self._obs_on:
            out["obs"] = obs.snapshot()
            if self.stats_reports:
                out["reports"] = {
                    f"shard{shard}": dict(self.stats_reports[shard].metrics)
                    for shard in sorted(self.stats_reports)
                }
        return out

    def close(self) -> None:
        """Release the shards (server processes exit; nothing, in process)."""
        if self._transport is not None:
            self._transport.close()

    def __enter__(self) -> "ServingFrontEnd":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} shards={self.num_shards} k={self.state.k} "
            f"queries={len(self._queries)} cache={'on' if self.cache_enabled else 'off'} "
            f"seq={self._seq} pending={len(self._pending)}>"
        )
