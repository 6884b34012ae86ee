"""The partition-local query-serving engine.

Executes pattern-matching queries *through* the per-partition stores: a
query is routed to start partitions (:mod:`repro.serving.router`), root
candidates are scanned from each contacted partition's label index, and
every embedding is expanded partition-locally — each time expansion
follows an edge whose endpoints live in different partitions the engine
charges one **hop**.

Hops are the live counterpart of the offline executor's inter-partition
traversals: the engine compiles the *same* search plan
(:func:`repro.query.isomorphism.search_plan`) over the same graph, so on
full enumeration the hop total of a query is **bit-identical** to
:class:`~repro.query.executor.WorkloadExecutor`'s ``cut_traversals`` —
the correctness anchor tested in ``tests/test_serving_equivalence.py``.
(Hops are charged per *completed* embedding, exactly as the executor
counts; ``border_expansions`` additionally counts speculative search steps
that crossed the border and found no embedding — the serving-only cost an
offline score never sees.)

The engine is online: :meth:`ServingEngine.ingest` feeds a batch to the
attached :class:`~repro.partitioning.base.StreamingPartitioner` (via
``ingest_batch``), admits the newly placed edges into the index, and ships
the round to the stores, which invalidate exactly the cached ``(query,
root)`` results the new edges can have changed (:mod:`repro.serving.cache`).

Whatever here does not depend on where the adjacency lives — plans,
admission, whole-workload execution, hop attribution — is
:class:`ServingFrontEnd`.  Its two back ends keep the adjacency, the
result cache and the invalidation BFS in the same place, a
:class:`~repro.runtime.server.ShardServer`: :class:`ServingEngine` runs one
in process that owns every partition, and
:class:`~repro.runtime.live.LiveCluster` runs one per shard process.
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
from repro.partitioning.state import PartitionState
from repro.query.isomorphism import search_plan
from repro.query.workload import Workload
from repro.serving.execution import CompiledPlan, RootResult, splice_segments
from repro.serving.router import Router, create_router
from repro.serving.stores import RoutingIndex, ShardStores


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


class ServingFrontEnd:
    """Every driver-side serving job that does not depend on where the
    adjacency lives, written once.

    Both back ends keep the :class:`~repro.serving.stores.RoutingIndex`
    here and the adjacency in shard servers: :class:`ServingEngine` in one,
    in process; :class:`~repro.runtime.live.LiveCluster` in one per server
    process.  The front end owns plan compilation, the traffic surface,
    batch admission (:meth:`ingest` / :meth:`finalize`), whole-workload
    execution and hop attribution; a back end supplies ``index``, the
    request protocol (:meth:`submit` / :meth:`poll_completed`, which
    :class:`~repro.serving.traffic.TrafficDriver` drives) and
    :meth:`serve_root`, :meth:`_publish` and :meth:`_cache_counts` — so the
    two deployments answer, admit and account identically by construction.
    :meth:`close` releases what a back end holds.
    """

    #: First component of this deployment's obs names (``<prefix>.hops.*``).
    obs_prefix = "serve"
    #: Inter-process hop messages sent so far.  In process a hop is a
    #: function call, not a message; a sharded back end counts per instance.
    hop_messages_sent = 0

    def __init__(
        self,
        graph: LabelledGraph,
        state: PartitionState,
        workload: Workload,
        index: RoutingIndex,
        router: Union[Router, str],
        partitioner: Optional[StreamingPartitioner],
    ) -> None:
        if partitioner is not None and partitioner.state is not state:
            raise ValueError(f"partitioner must share {type(self).__name__}'s PartitionState")
        self.graph = graph
        self.state = state
        self.workload = workload
        self.index = index
        self.router = create_router(router) if isinstance(router, str) else router
        self.partitioner = partitioner
        # The graph's label histogram, maintained incrementally by ingest:
        # recompiling plans per batch must not rescan every vertex.
        self._label_counts = graph.label_counts()
        self._queries: Dict[str, _CompiledQuery] = {}
        self._compile_plans()
        # Observability (repro.obs): bound at construction; NULL stubs
        # when disabled, so the serve path pays one flag check per root.
        # Hop attribution is keyed (query, root label id, partition) — the
        # per-partition signal ROADMAP item 3's hot-border replication
        # needs — and joins snapshots via a collector.
        self._obs_on = obs.enabled()
        self._trace = obs.tracer()
        self._trace_on = self._trace.enabled
        self._hop_attribution: Dict[Tuple[str, int, int], int] = {}
        obs.register_collector(f"{self.obs_prefix}.hops", self._hop_metrics)

    # ------------------------------------------------------------------
    # What a back end supplies
    # ------------------------------------------------------------------
    def submit(self, query_name: str, root: int) -> int:
        """Accept one ``(query, root vertex id)`` request; returns its id."""
        raise NotImplementedError

    def poll_completed(
        self, timeout: Optional[float] = None
    ) -> List[Tuple[int, RootResult, Optional[bool]]]:
        """Completed requests as ``(request id, result, cached)`` triples;
        ``cached`` is True on a cache hit, False on a miss and None when
        the cache is off.  An empty list means nothing finished within
        ``timeout``."""
        raise NotImplementedError

    def serve_root(self, query_name: str, root: int) -> RootResult:
        """Serve one ``(query, root vertex id)`` request synchronously."""
        raise NotImplementedError

    def _publish(self, new_edges: Sequence[Tuple[int, int]], dropped: Tuple[str, ...]) -> None:
        """Make one admission round visible to serving: ``new_edges`` are
        the id pairs the index just admitted, ``dropped`` the queries the
        round re-rooted (entries cached under the old root are void)."""
        raise NotImplementedError

    def _cache_counts(self) -> Tuple[int, int]:
        """Cumulative ``(hits, misses)`` of the result cache(s)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the back end holds (nothing, in process)."""

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
        on either back end, so hops and embeddings are comparable entry by
        entry."""
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
        # back end then publishes the round under the new plans.
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

    def _attribute_hops(self, plan, partition: int, hops: int) -> None:
        """Charge ``hops`` of a ``plan`` request to ``partition``."""
        key = (plan.name, plan.label_ids[0], partition)
        self._hop_attribution[key] = self._hop_attribution.get(key, 0) + hops

    def _hop_metrics(self) -> Dict[str, int]:
        """Hop attribution as dotted names (``<query>.l<label>.p<part>``).

        Keys interpolate query names (workload strings) and ints — value
        forms, not object reprs — and insertion follows sorted key order.
        """
        out: Dict[str, int] = {}
        for key in sorted(self._hop_attribution):
            query, label_id, partition = key
            name = f"{query}.l{label_id}.p{partition}"
            out[name] = self._hop_attribution[key]
        return out


class ServingEngine(ServingFrontEnd):
    """Serve a :class:`Workload` in process, through one shard server.

    The server is shard 0 of 1 — it owns every partition, so no request
    ever hands off a continuation — and holds the adjacency, the result
    cache and the invalidation BFS exactly as each server of a
    :class:`~repro.runtime.live.LiveCluster` does.  ``stores`` is the
    routing index, ``server`` the :class:`~repro.runtime.server.ShardServer`
    and ``cache`` its :class:`~repro.serving.cache.ResultCache` (``None``
    when off).

    Parameters
    ----------
    graph:
        The live data graph.  For static serving this is the fully
        streamed graph; with ``partitioner`` attached the engine grows it
        edge by edge through :meth:`ingest`.
    state:
        The (shared-interner) partition assignment to serve through.
    workload:
        The queries and their frequencies.
    router:
        A :class:`~repro.serving.router.Router` instance or a router name
        (default ``"candidate-count"``).
    cache:
        Serve through an unbounded ``(query, root)`` result cache.
    partitioner:
        Optional streaming partitioner fed by :meth:`ingest`; it must share
        ``state`` (and therefore the interner) with the engine.
    """

    def __init__(
        self,
        graph: LabelledGraph,
        state: PartitionState,
        workload: Workload,
        router: Union[Router, str] = "candidate-count",
        cache: bool = False,
        partitioner: Optional[StreamingPartitioner] = None,
    ) -> None:
        # Imported here: repro.runtime imports this module (LiveCluster is
        # a ServingFrontEnd), so a module-level import would be a cycle.
        from repro.runtime.messages import QueryRequest, ServeSpec
        from repro.runtime.server import ShardServer

        if cache is not None and not isinstance(cache, bool):
            # An empty ResultCache is falsy: as a flag it would turn caching off.
            raise TypeError(f"cache is a bool, not {type(cache).__name__}")
        index = RoutingIndex(state)
        shard = ShardStores.beside(index, graph)
        super().__init__(graph, state, workload, index, router, partitioner)
        depths = tuple(sorted((name, plan.depth) for name, plan in self._queries.items()))
        self.server = ShardServer(ServeSpec(0, 1, state.k, depths, bool(cache)), shard)
        self.stores = index
        self.cache = self.server.cache
        #: Bound once: an import statement per request costs ~1 µs.
        self._query_request = QueryRequest
        # The per-request path stays lean on purpose: one window record,
        # one attribution add, one (guarded) trace event.  Request totals
        # and latency percentiles come from the windowed rollup; cache
        # hit/miss counts already live on the cache — a collector reads
        # them at snapshot time instead of double-counting per request.
        self._obs_window = obs.window("serving")
        if self.cache is not None:
            obs.register_collector("serve.cache", self.cache.stats)
        #: Submitted, not yet served requests, oldest first.
        self._queue: "deque[Tuple[int, str, int]]" = deque()
        self._next_request_id = 0

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, query_name: str, root: int) -> int:
        """Queue one request; :meth:`poll_completed` serves the queue in
        submission order, as one server would."""
        self._plan(query_name)  # an unknown query fails here, as on a cluster
        request_id = self._next_request_id
        self._next_request_id += 1
        self._queue.append((request_id, query_name, root))
        return request_id

    def poll_completed(
        self, timeout: Optional[float] = None
    ) -> List[Tuple[int, RootResult, Optional[bool]]]:
        """Serve the oldest queued request; ``[]`` when none is queued.
        Serving in process never waits, so ``timeout`` is not used."""
        if not self._queue:
            return []
        request_id, query_name, root = self._queue.popleft()
        return [(request_id, *self._serve(query_name, root))]

    def serve_root(self, query_name: str, root: int) -> RootResult:
        """Serve one ``(query, root vertex id)`` request, through the cache."""
        return self._serve(query_name, root)[0]

    def _serve(self, query_name: str, root: int) -> Tuple[RootResult, Optional[bool]]:
        """One request through the server: its result, and True on a cache
        hit, False on a miss, None with the cache off."""
        plan = self._plan(query_name)
        obs_on = self._obs_on
        t0 = time.perf_counter() if obs_on else 0.0
        # An unplaced root (never interned, negative, unassigned) lands on
        # p-1, never on a real partition; the server finds no such root.
        partition = self.state.partition_of_id(root)
        reply = self.server.handle_query(self._query_request(0, plan.compiled, root, partition))
        result = reply.result
        if result is None:
            embeddings, hops, border = splice_segments(reply.segments)
            result = RootResult(plan.name, root, tuple(embeddings), hops, border)
        if obs_on:
            self._record_serve(plan, root, partition, result, reply.cached is True, t0)
        return result, reply.cached

    def _record_serve(
        self,
        plan: _CompiledQuery,
        root: int,
        partition: int,
        result: RootResult,
        hit: bool,
        t0: float,
    ) -> None:
        """Out-of-band per-request telemetry (obs enabled only): windowed
        rollup, hop attribution, one trace event when tracing is on.  Every
        trace field is deterministic; the clock feeds only latency metrics."""
        latency_us = int((time.perf_counter() - t0) * 1e6)
        self._attribute_hops(plan, partition, result.hops)
        self._obs_window.record(plan.name, result.hops, latency_us)
        if self._trace_on:
            self._trace.event(
                "serve.done",
                query=plan.name,
                root=root,
                partition=partition,
                hops=result.hops,
                embeddings=result.num_embeddings,
                cached=hit,
            )

    def serve_vertex(self, query_name: str, root_vertex: Vertex) -> RootResult:
        """Vertex-keyed :meth:`serve_root` (the public request boundary)."""
        vid = self.state.interner.id_of(root_vertex)
        if vid is None:
            raise KeyError(f"unknown root vertex {root_vertex!r}")
        return self.serve_root(query_name, vid)

    def _cache_counts(self) -> Tuple[int, int]:
        return (self.cache.hits, self.cache.misses) if self.cache is not None else (0, 0)

    def _publish(self, new_edges: Sequence[Tuple[int, int]], dropped: Tuple[str, ...]) -> None:
        """Apply the round to the server, which invalidates its cache."""
        from repro.runtime.messages import edge_updates  # see __init__

        (update,) = edge_updates(self.index, 1, self.server.seq + 1, new_edges, dropped, True)
        self.server.apply_update(update)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ServingEngine k={self.state.k} queries={len(self._queries)} "
            f"router={self.router.name!r} cache={'on' if self.cache is not None else 'off'}>"
        )
