"""The live cluster driver: N shard servers, one authoritative stream.

:class:`LiveCluster` runs the serving engine's execution sharded across
processes (bounded queues, liveness-checked backpressure, failure
envelopes).  One driver process owns the *decisions* — the single
streaming partitioner, the
:class:`~repro.graph.labelled_graph.LabelledGraph`, plan compilation and
query routing over an adjacency-free
:class:`~repro.serving.stores.RoutingIndex` — while ``num_shards``
long-lived :mod:`repro.runtime.server` processes own the *data*: each
holds the :class:`~repro.serving.stores.ShardStores` (and the
:class:`~repro.serving.cache.ResultCache` slice) of the partitions with
``p % num_shards == shard_id``.

Boot is **one cold pass**: the driver walks the graph once
(:func:`boot_snapshot`), filling its routing index and, in the same loop,
each shard's slice — member rows with their sorted neighbour lists, plus
ghost rows for off-shard neighbours.  The slice rides in the shard's
:class:`~repro.runtime.messages.ServeSpec` (a ``Process`` argument:
inherited under ``fork``, pickled once under ``spawn``); the server
adopts it as its stores and acks it as round 0, so the constructor
returns a ready cluster.

Every later ingest is a **barriered round**: the driver partitions a
batch, derives the visible edge delta, and sends every server an
:class:`~repro.runtime.messages.EdgeUpdate` (possibly empty — the
sequence number advances uniformly, which is what the cache-epoch rule
compares).  Acks return cache-invalidation *forwards* — ghost vertices a
shard's radius-BFS settled that another shard owns — and the driver
relays them as :class:`~repro.runtime.messages.InvalidationHops` waves
until the frontier is dry.

Serving is a **continuation pipeline**: a root request goes to the root
owner; the shard executes as far as it can see and returns ordered
segments; every embedded :class:`~repro.serving.execution.Continuation`
becomes a :class:`~repro.runtime.messages.StepRequest` to the shard that
owns the next expansion — the cross-partition hop as an actual message —
and the driver splices resolved subtrees back in DFS order, so the final
:class:`~repro.serving.execution.RootResult` is bit-identical to the
single-process engine's.  Up to ``inflight`` roots are outstanding at
once (the closed-loop traffic mode); results assembled from multiple
shards are written back to the root owner's cache with an epoch guard.

Determinism contract (tested in ``tests/test_live_serving.py`` and the
determinism suites): on a quiesced stream every answer, hop count and
cache statistic is bit-identical to the single-process engine for any
shard count; under interleaved ingest/serve the lock-step pattern (ingest
round barrier, then a serve burst) keeps the same guarantee because every
request observes exactly one epoch.
"""

from __future__ import annotations

import queue as queue_module
import multiprocessing as mp
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.graph.labelled_graph import LabelledGraph
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.state import UNASSIGNED, PartitionState
from repro.query.workload import Workload
from repro.runtime.liveness import describe_exit, failure_from_process, raise_failure
from repro.runtime.messages import (
    END_OF_STREAM,
    CachePut,
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
    edge_updates,
    shard_of_partition,
)
from repro.runtime.server import shard_server_main
from repro.serving.engine import ServingFrontEnd
from repro.serving.execution import Continuation, RootResult, splice_segments
from repro.serving.router import Router
from repro.serving.stores import RoutingIndex, cold_rows

DEFAULT_QUEUE_DEPTH = 16
"""Messages a server queue buffers before the driver's put blocks."""

#: A shard's boot snapshot rows (:class:`~repro.runtime.messages.ServeSpec`).
MemberRow = Tuple[int, int, int, List[int]]
GhostRow = Tuple[int, int, int]


def boot_snapshot(
    graph: LabelledGraph, state: PartitionState, num_shards: int
) -> Tuple[RoutingIndex, List[List[MemberRow]], List[List[GhostRow]]]:
    """The driver's one cold pass: its routing index and every shard's slice.

    Per shard, ``(vid, label_id, partition, nbrs)`` for each placed vertex
    it owns, in ``graph.vertices()`` order with ``nbrs`` sorted, and
    ``(vid, label_id, partition)`` for each off-shard neighbour, by id —
    what :meth:`~repro.serving.stores.ShardStores.from_rows` boots from.
    Edges with an unplaced endpoint stay in the index's pending buffer and
    out of every slice, exactly as :meth:`RoutingIndex.from_state` leaves
    them; no vertex row is queued, so the first round announces only
    vertices placed after boot.
    """
    index = RoutingIndex(state)
    partition_of = state.assignment_vector
    members: List[List[MemberRow]] = [[] for _ in range(num_shards)]
    ghost_ids: List[Set[int]] = [set() for _ in range(num_shards)]
    for row in cold_rows(index, graph):
        nbrs = row[3]
        nbrs.sort()
        shard = shard_of_partition(row[2], num_shards)
        members[shard].append(row)
        ghost_ids[shard].update([w for w in nbrs if partition_of[w] % num_shards != shard])
    label_of = index._label_of
    ghosts = [[(w, label_of[w], partition_of[w]) for w in sorted(ids)] for ids in ghost_ids]
    return index, members, ghosts


class _Hole:
    """Driver-local splice marker: where a dispatched step's results go."""

    __slots__ = ("step_id",)

    def __init__(self, step_id: int) -> None:
        self.step_id = step_id


class _PendingRequest:
    """Driver-side state of one in-flight ``(query, root)`` request."""

    __slots__ = (
        "request_id",
        "query",
        "root",
        "plan",
        "root_segments",
        "steps",
        "outstanding",
        "root_received",
        "dispatched_steps",
        "seqs",
        "cached",
    )

    def __init__(self, request_id: int, query: str, root: int, plan) -> None:
        self.request_id = request_id
        self.query = query
        self.root = root
        self.plan = plan
        self.root_segments: Optional[List[object]] = None
        #: step id → resolved segment list (with holes for its children).
        self.steps: Dict[int, List[object]] = {}
        self.outstanding = 0
        self.root_received = False
        self.dispatched_steps = 0
        self.seqs: set = set()
        self.cached: Optional[bool] = None


class LiveCluster(ServingFrontEnd):
    """N live shard servers behind one routing/ingest driver.

    The sharded back end of :class:`~repro.serving.engine.ServingFrontEnd`:
    plan compilation, batch admission and whole-workload execution are the
    front end's, so parameters mean what they mean on
    :class:`~repro.serving.engine.ServingEngine` where they overlap
    (``router``, ``cache``, ``partitioner``); ``num_shards`` picks the
    process topology.  Use as a context manager, or call :meth:`close` —
    servers are long-lived processes and hold queues open until told to
    exit.
    """

    obs_prefix = "live"

    def __init__(
        self,
        graph: LabelledGraph,
        state: PartitionState,
        workload: Workload,
        *,
        num_shards: int,
        router: Union[Router, str] = "candidate-count",
        cache: bool = True,
        cache_capacity: Optional[int] = None,
        partitioner: Optional[StreamingPartitioner] = None,
        start_method: Optional[str] = None,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        request_timeout: float = 120.0,
        stats_every: Optional[int] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if cache is not None and not isinstance(cache, bool):
            # An empty ResultCache is falsy: as a flag it would turn caching
            # off.  Refused before the snapshot is cut or a server starts.
            raise TypeError(f"cache is a bool, not {type(cache).__name__}")
        index, members, ghosts = boot_snapshot(graph, state, num_shards)
        super().__init__(graph, state, workload, index, router, partitioner)
        self.num_shards = num_shards
        self.cache_enabled = bool(cache)
        self.request_timeout = request_timeout

        #: The boot snapshot is round 0; each later ingest round adds one.
        self._seq = 0
        self._next_request_id = 0
        self._pending: Dict[int, _PendingRequest] = {}
        self._completed: "deque[int]" = deque()
        self._results: Dict[int, RootResult] = {}
        #: request id → shard-reported cache flag (True hit / False miss /
        #: None when caching is off or the root was answered driver-side).
        self._cached_flags: Dict[int, Optional[bool]] = {}
        self._inbox: "deque[object]" = deque()
        self.hop_messages_sent = 0
        self.requests_completed = 0
        #: Shard-reported root-step cache flags, summed (``_cache_counts``).
        self._cache_hits = 0
        self._cache_misses = 0
        #: Cache flag of the most recent :meth:`wait` completion.
        self.last_cached: Optional[bool] = None
        self._closed = False

        # Observability (repro.obs): NULL stubs unless obs.enable() ran
        # before construction.  Hop attribution here is per dispatched
        # StepRequest, charged to the *target* partition — the
        # per-partition transport-hop signal ROADMAP item 3 needs.
        self._c_requests = obs.counter("live.requests")
        self._c_cache_hits = obs.counter("live.cache_hits")
        self._c_cache_misses = obs.counter("live.cache_misses")
        self._c_hops = obs.counter("live.hop_messages")
        #: shard id → latest unsolicited StatsReport (intercepted by the
        #: message loop; never interleaves with serving replies).
        self.stats_reports: Dict[int, StatsReport] = {}
        if stats_every is None:
            stats_every = 4 if self._obs_on else 0
        self._stats_every = stats_every

        ctx = mp.get_context(
            start_method
            if start_method is not None
            else ("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        )
        depths = tuple(sorted((name, plan.depth) for name, plan in self._queries.items()))
        self._ingest_queues = [ctx.Queue(maxsize=queue_depth) for _ in range(num_shards)]
        self._request_queues = [ctx.Queue(maxsize=queue_depth) for _ in range(num_shards)]
        self._out_queue = ctx.Queue()
        self._servers = []
        try:
            for shard_id in range(num_shards):
                spec = ServeSpec(
                    shard_id=shard_id,
                    num_shards=num_shards,
                    k=state.k,
                    query_depths=depths,
                    cache_enabled=self.cache_enabled,
                    cache_capacity=cache_capacity,
                    obs_enabled=self._obs_on,
                    stats_every=self._stats_every,
                    members=members[shard_id],
                    ghosts=ghosts[shard_id],
                )
                process = ctx.Process(
                    target=shard_server_main,
                    args=(
                        spec,
                        self._ingest_queues[shard_id],
                        self._request_queues[shard_id],
                        self._out_queue,
                    ),
                    name=f"loom-serve-{shard_id}",
                    daemon=True,
                )
                process.start()
                self._servers.append(process)
            # Each server acks its snapshot as round 0: ready on return.
            self._barrier(set(range(num_shards)))
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Process plumbing
    # ------------------------------------------------------------------
    def _check_servers(self) -> None:
        for shard_id, process in enumerate(self._servers):
            if not process.is_alive():
                # One grace read: the failure envelope may still be in flight.
                try:
                    message = self._out_queue.get(timeout=1.0)
                except queue_module.Empty:
                    raise failure_from_process(shard_id, process, "mid-serve") from None
                if isinstance(message, ServerFailure):
                    raise_failure(message)
                self._inbox.append(message)

    def _put(self, queues, shard: int, item) -> None:
        """Bounded put with liveness: drain replies while the queue is full
        so a dead or wedged server surfaces as an error, not a hang."""
        while True:
            try:
                queues[shard].put(item, timeout=1.0)
                return
            except queue_module.Full:
                while True:
                    try:
                        message = self._out_queue.get_nowait()
                    except queue_module.Empty:
                        break
                    if isinstance(message, ServerFailure):
                        raise_failure(message)
                    self._inbox.append(message)
                self._check_servers()

    def _next_message(self, deadline: float, soft: bool = False):
        """One *protocol* message from the inbox or the shared reply queue.

        Out-of-band telemetry (:class:`StatsReport`) is absorbed here —
        every consumer (serve loop, barrier, stats probes) reads through
        this method, so unsolicited reports can never surface as an
        unexpected message or perturb reply order.
        """
        while True:
            message = self._next_message_raw(deadline, soft)
            if isinstance(message, StatsReport):
                self.stats_reports[message.shard_id] = message
                continue
            return message

    def _next_message_raw(self, deadline: float, soft: bool = False):
        """One message from the inbox or the shared reply queue.

        ``soft`` makes the deadline a polling budget: return ``None`` when
        it passes instead of raising (the open-loop driver's pacing path).
        """
        if self._inbox:
            return self._inbox.popleft()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if soft:
                    # Even a zero budget drains what is already queued:
                    # an open-loop driver running behind schedule polls
                    # with budget 0 every iteration, and skipping the
                    # read entirely would never complete anything.
                    try:
                        message = self._out_queue.get_nowait()
                    except queue_module.Empty:
                        self._check_servers()
                        return None
                    if isinstance(message, ServerFailure):
                        raise_failure(message)
                    return message
                states = ", ".join(
                    f"shard {i}: {describe_exit(p) if p.exitcode is not None else 'alive'}"
                    for i, p in enumerate(self._servers)
                )
                raise RuntimeError(
                    f"live cluster timed out after {self.request_timeout:g}s "
                    f"waiting for shard replies [{states}]"
                )
            try:
                message = self._out_queue.get(timeout=min(1.0, remaining))
            except queue_module.Empty:
                self._check_servers()
                if self._inbox:
                    return self._inbox.popleft()
                continue
            if isinstance(message, ServerFailure):
                raise_failure(message)
            return message

    # ------------------------------------------------------------------
    # Ingest rounds
    # ------------------------------------------------------------------
    def _publish(self, new_edges: Sequence[Tuple[int, int]], dropped: Tuple[str, ...]) -> None:
        """Ship the round's delta as one barriered EdgeUpdate round — also
        when nothing became visible, so the epoch advances uniformly — and
        relay its invalidation waves.

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
            self._put(self._ingest_queues, shard, update)
        self._barrier(set(range(self.num_shards)))

    def _barrier(self, expected: set) -> None:
        """Collect one IngestAck per contacted shard; relay invalidation
        forwards as waves until the frontier is dry.  Step replies arriving
        mid-barrier (free-running serve traffic) are buffered, not lost."""
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
                wave = InvalidationHops(self._seq, tuple(per_shard[shard]))
                self._put(self._ingest_queues, shard, wave)
        self._inbox.extend(stash)

    # ------------------------------------------------------------------
    # Serving pipeline
    # ------------------------------------------------------------------
    def submit(self, query_name: str, root: int) -> int:
        """Dispatch one ``(query, root)`` request; returns its request id.

        Up to the caller's chosen in-flight depth may be outstanding; pair
        with :meth:`poll_completed` / :meth:`wait`.
        """
        plan = self._plan(query_name).compiled
        request_id = self._next_request_id
        self._next_request_id += 1
        partition = self.state.partition_of_id(root) if root >= 0 else UNASSIGNED
        request = _PendingRequest(request_id, query_name, root, plan)
        self._pending[request_id] = request
        if partition == UNASSIGNED or root not in self.index._label_of:
            # Unplaced root: nothing is stored anywhere — answer driver-side.
            self._finish(request, RootResult(query_name, root, (), 0, 0), cache_put=False)
            return request_id
        message = QueryRequest(request_id, plan, root, partition)
        shard = shard_of_partition(partition, self.num_shards)
        if self._trace_on:
            self._trace.event(
                "live.route",
                request=request_id,
                query=query_name,
                root=root,
                partition=partition,
                shard=shard,
            )
        self._put(self._request_queues, shard, message)
        return request_id

    def poll_completed(
        self, timeout: Optional[float] = None
    ) -> List[Tuple[int, RootResult, Optional[bool]]]:
        """Process replies until at least one request completes (or the
        optional wait budget runs out); drain every finished request as
        ``(request_id, result, cached)`` triples.

        With an explicit ``timeout`` the deadline is *soft*: returning an
        empty list is how "nothing finished yet" reads (the open-loop
        traffic driver's pacing path); without one the cluster-wide
        request timeout applies and expiry raises."""
        soft = timeout is not None
        deadline = time.monotonic() + (timeout if soft else self.request_timeout)
        while not self._completed and self._pending:
            message = self._next_message(deadline, soft=soft)
            if message is None:
                break
            self._process_reply(message)
        finished: List[Tuple[int, RootResult, Optional[bool]]] = []
        while self._completed:
            request_id = self._completed.popleft()
            finished.append(
                (
                    request_id,
                    self._results.pop(request_id),
                    self._cached_flags.pop(request_id, None),
                )
            )
        return finished

    def wait(self, request_id: int) -> RootResult:
        """Block until ``request_id`` completes; returns its result.  The
        request's cache flag lands in :attr:`last_cached`."""
        deadline = time.monotonic() + self.request_timeout
        while request_id not in self._results:
            if request_id not in self._pending and request_id not in self._results:
                raise KeyError(f"unknown or already-collected request {request_id}")
            self._process_reply(self._next_message(deadline))
        self._completed.remove(request_id)
        self.last_cached = self._cached_flags.pop(request_id, None)
        return self._results.pop(request_id)

    def serve_root(self, query_name: str, root: int) -> RootResult:
        """Synchronous one-request convenience (in-flight depth 1)."""
        return self.wait(self.submit(query_name, root))

    def _cache_counts(self) -> Tuple[int, int]:
        return self._cache_hits, self._cache_misses

    def _process_reply(self, message) -> None:
        if not isinstance(message, StepReply):
            raise RuntimeError(f"unexpected message while serving: {message!r}")
        request = self._pending.get(message.request_id)
        if request is None:  # pragma: no cover - protocol invariant
            raise RuntimeError(f"reply for unknown request {message.request_id}")
        request.seqs.add(message.seq)
        if message.step_id == 0:
            request.root_received = True
            request.cached = message.cached
            if message.result is not None:  # shard-cache hit: complete result
                self._finish(request, message.result, cache_put=False)
                return
            container: List[object] = list(message.segments)
            request.root_segments = container
        else:
            container = list(message.segments)
            request.steps[message.step_id] = container
            request.outstanding -= 1
        for i, segment in enumerate(container):
            if isinstance(segment, Continuation):
                step_id = request.dispatched_steps + 1
                request.dispatched_steps += 1
                container[i] = _Hole(step_id)
                request.outstanding += 1
                step = StepRequest(request.request_id, step_id, request.plan, segment)
                self.hop_messages_sent += 1
                self._c_hops.inc()
                if self._obs_on:
                    # Exact per-hop attribution: each dispatched step is one
                    # cross-partition message, charged to the partition it
                    # lands on (the hot-border signal, ROADMAP item 3).
                    self._attribute_hops(request.plan, segment.target_partition, 1)
                    if self._trace_on:
                        self._trace.event(
                            "live.hop",
                            request=request.request_id,
                            query=request.query,
                            step=step_id,
                            partition=segment.target_partition,
                        )
                self._put(
                    self._request_queues,
                    shard_of_partition(segment.target_partition, self.num_shards),
                    step,
                )
        if request.root_received and request.outstanding == 0:
            embeddings, hops, border = self._fold(request, request.root_segments)
            result = RootResult(request.query, request.root, tuple(embeddings), hops, border)
            self._finish(request, result, cache_put=request.dispatched_steps > 0)

    def _fold(self, request: _PendingRequest, container: List[object]):
        """Splice ``container`` in DFS order; each hole is a resolved child step."""
        return splice_segments(
            container, lambda hole: self._fold(request, request.steps[hole.step_id])
        )

    def _finish(self, request: _PendingRequest, result: RootResult, cache_put: bool) -> None:
        del self._pending[request.request_id]
        self._results[request.request_id] = result
        self._cached_flags[request.request_id] = request.cached
        self._completed.append(request.request_id)
        self.requests_completed += 1
        self._c_requests.inc()
        if request.cached is True:
            self._cache_hits += 1
            self._c_cache_hits.inc()
        elif request.cached is False:
            self._cache_misses += 1
            self._c_cache_misses.inc()
        if self._trace_on:
            self._trace.event(
                "live.serve.done",
                request=request.request_id,
                query=request.query,
                root=request.root,
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
            partition = self.state.partition_of_id(request.root)
            self._put(
                self._request_queues,
                shard_of_partition(partition, self.num_shards),
                put,
            )

    # ------------------------------------------------------------------
    # Stats / shutdown
    # ------------------------------------------------------------------
    def shard_stats(self) -> List[ServerStats]:
        """One ServerStats snapshot per shard (barriers on the replies)."""
        for shard in range(self.num_shards):
            probe = StatsRequest(shard)
            self._put(self._request_queues, shard, probe)
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
        """Cluster-wide counters: per-shard snapshots + driver-side truth.

        One tree, rendered everywhere through
        :func:`repro.obs.format.render_lines`; with obs enabled it folds
        in the driver registry snapshot (which includes hop attribution
        and any partitioner collectors) and the latest shipped
        :class:`StatsReport` per shard.
        """
        shards = self.shard_stats()
        queue_depths = []
        for shard in range(self.num_shards):
            try:
                depth = self._ingest_queues[shard].qsize() + self._request_queues[shard].qsize()
            except NotImplementedError:  # pragma: no cover - macOS qsize
                depth = -1
            queue_depths.append(depth)
        out: Dict[str, object] = {
            "num_shards": self.num_shards,
            "seq": self._seq,
            "requests_completed": self.requests_completed,
            "hop_messages_sent": self.hop_messages_sent,
            "queue_depths": queue_depths,
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
        """Shut every server down; terminate stragglers after a grace join."""
        if self._closed:
            return
        self._closed = True
        for shard in range(self.num_shards):
            for queues in (self._ingest_queues, self._request_queues):
                try:
                    queues[shard].put_nowait(END_OF_STREAM)
                except queue_module.Full:
                    pass
        for process in self._servers:
            process.join(timeout=2.0)
        for process in self._servers:
            if process.is_alive():
                process.terminate()
                process.join(timeout=10.0)

    def __enter__(self) -> "LiveCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LiveCluster shards={self.num_shards} k={self.state.k} "
            f"seq={self._seq} pending={len(self._pending)}>"
        )
