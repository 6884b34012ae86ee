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
``ingest_batch``), admits the newly placed edges into the stores, and
invalidates exactly the cached ``(query, root)`` results the new edges can
have changed (:mod:`repro.serving.cache`).

Whatever here does not depend on where the adjacency lives — plans,
admission, whole-workload execution, hop attribution — is
:class:`ServingFrontEnd`; the engine is its in-process back end and
:class:`~repro.runtime.live.LiveCluster` its sharded one.
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
from repro.serving.cache import ResultCache, invalidation_sets
from repro.serving.execution import CompiledPlan, GlobalView, enumerate_root, splice_segments
from repro.serving.router import Router, create_router
from repro.serving.stores import RoutingIndex, ServingStores


@dataclass(frozen=True)
class RootResult:
    """Everything one ``(query, root)`` request returns — the cached unit."""

    query: str
    root: int
    #: Complete embeddings, each a tuple of vertex ids in plan-slot order.
    embeddings: Tuple[Tuple[int, ...], ...]
    #: Border crossings inside the returned embeddings (the ipt share).
    hops: int
    #: Search steps that followed a border edge while generating candidates,
    #: including ones that never completed an embedding.
    border_expansions: int

    @property
    def num_embeddings(self) -> int:
        return len(self.embeddings)


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

    @property
    def hops_per_embedding(self) -> float:
        return self.hops / self.embeddings if self.embeddings else 0.0


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
    def total_embeddings(self) -> int:
        return sum(q.embeddings for q in self.queries)

    @property
    def total_partitions_contacted(self) -> int:
        return sum(q.partitions_contacted for q in self.queries)


def _reject_continuation(continuation):  # pragma: no cover - invariant guard
    raise RuntimeError(f"global view emitted a continuation: {continuation!r}")


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

    Two back ends stand behind it: :class:`ServingEngine` keeps the
    adjacency in process (:class:`~repro.serving.stores.ServingStores`);
    :class:`~repro.runtime.live.LiveCluster` keeps only the
    :class:`~repro.serving.stores.RoutingIndex` and shards the adjacency
    across server processes.  The front end owns plan compilation, the
    traffic surface, batch admission (:meth:`ingest` / :meth:`finalize`),
    whole-workload execution and hop attribution; a back end supplies
    ``index``, the request protocol (:meth:`submit` /
    :meth:`poll_completed`, which :class:`~repro.serving.traffic.TrafficDriver`
    drives) and :meth:`serve_root`, :meth:`_publish` and
    :meth:`_cache_counts` — so the two deployments answer, admit and
    account identically by construction.  :meth:`close` releases what a
    back end holds.
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
        """
        if self.partitioner is None:
            raise ValueError(f"{type(self).__name__} has no partitioner attached; cannot ingest")
        batch = list(events)
        self.partitioner.ingest_batch(batch)
        label_counts = self._label_counts
        for event in batch:
            for v, label in ((event.u, event.u_label), (event.v, event.v_label)):
                if not self.graph.has_vertex(v):
                    label_counts[label] = label_counts.get(label, 0) + 1
            self.graph.add_edge(event.u, event.v, event.u_label, event.v_label)
        new_edges = []
        for event in batch:
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
    """Serve a :class:`Workload` through per-partition stores.

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
        A :class:`~repro.serving.router.Router` instance or a registered
        router name (default ``"candidate-count"``).
    cache:
        A :class:`~repro.serving.cache.ResultCache`, ``True`` for a default
        unbounded one, or ``None``/``False`` to serve uncached.
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
        cache: Union[ResultCache, bool, None] = None,
        partitioner: Optional[StreamingPartitioner] = None,
    ) -> None:
        if cache is True:
            self.cache: Optional[ResultCache] = ResultCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache  # a caller-configured ResultCache (even an empty one)
        self.stores = ServingStores.from_state(graph, state)
        super().__init__(graph, state, workload, self.stores, router, partitioner)
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
        hits0 = self._cache_counts()[0]
        result = self.serve_root(query_name, root)
        cached = None if self.cache is None else self._cache_counts()[0] > hits0
        return [(request_id, result, cached)]

    def serve_root(self, query_name: str, root: int) -> RootResult:
        """Serve one ``(query, root vertex id)`` request, through the cache."""
        plan = self._plan(query_name)
        obs_on = self._obs_on
        t0 = time.perf_counter() if obs_on else 0.0
        hit = False
        result: Optional[RootResult] = None
        if self.cache is not None:
            result = self.cache.get((query_name, root))
            hit = result is not None  # a hit answers locally: no partitions touched
        if result is None:
            result = self._enumerate_root(plan, root)
            if self.cache is not None:
                self.cache.put((query_name, root), result)
        if obs_on:
            self._record_serve(plan, root, result, hit, t0)
        return result

    def _record_serve(
        self, plan: _CompiledQuery, root: int, result: RootResult, hit: bool, t0: float
    ) -> None:
        """Out-of-band per-request telemetry (obs enabled only): windowed
        rollup, hop attribution, one trace event when tracing is on.  Every
        trace field is deterministic; the clock feeds only latency metrics."""
        latency_us = int((time.perf_counter() - t0) * 1e6)
        # An unplaced root (never interned, negative, unassigned) lands on
        # p-1, never on a real partition.
        partition = self.state.partition_of_id(root)
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

    def _enumerate_root(self, plan: _CompiledQuery, root: int) -> RootResult:
        """Enumerate every embedding whose plan-root slot maps to ``root``.

        The expansion mirrors ``find_embeddings`` exactly — same plan, same
        injectivity/label/anchor checks — but runs through the shared step
        executor (:mod:`repro.serving.execution`) on the partition stores:
        candidates come from the owner store's adjacency, and each anchor
        edge whose endpoints live in different partitions is a hop.  Under
        the global view every edge is decidable and every partition owned,
        so the step never emits a continuation — the same code path a shard
        server runs, minus the wire.
        """
        stores = self.stores
        if stores._label_of.get(root) != plan.label_ids[0]:
            return RootResult(plan.name, root, (), 0, 0)
        view = GlobalView(stores, self.state)
        segments = enumerate_root(view, plan.compiled, root, self.state.assignment_vector[root])
        embeddings, hops_total, border_expansions = splice_segments(segments, _reject_continuation)
        return RootResult(plan.name, root, tuple(embeddings), hops_total, border_expansions)

    def _cache_counts(self) -> Tuple[int, int]:
        return (self.cache.hits, self.cache.misses) if self.cache is not None else (0, 0)

    def _publish(self, new_edges: Sequence[Tuple[int, int]], dropped: Tuple[str, ...]) -> None:
        if self.cache is None or not new_edges:
            return
        # Re-rooted queries lose their entries wholesale; the radius rule
        # covers everything still cached: only roots within |Eq| hops of a
        # new edge can have gained embeddings.
        for name in dropped:
            self.cache.drop_query(name)
        depths = {name: plan.depth for name, plan in self._queries.items()}
        for name, roots in invalidation_sets(self.stores, new_edges, depths).items():
            if roots:
                self.cache.invalidate_roots(name, roots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ServingEngine k={self.state.k} queries={len(self._queries)} "
            f"router={self.router.name!r} cache={'on' if self.cache is not None else 'off'}>"
        )
