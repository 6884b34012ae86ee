"""The live shard server: one long-lived process, ingest *and* serve.

A :class:`ShardServer` stays up for the life of the cluster, owning the
:class:`~repro.serving.stores.ShardStores` of every partition with
``p % num_shards == shard_id`` and answering routed sub-queries while
edge deltas keep arriving.  It boots from the snapshot in its
:class:`~repro.runtime.messages.ServeSpec` — the driver's cold pass,
adopted in one go as the shard's stores — and acknowledges that as
ingest round 0.  The process entry point (:func:`shard_server_main`) then
multiplexes two bounded queues:

* the **ingest queue** carries :class:`~repro.runtime.messages.EdgeUpdate`
  rounds and :class:`~repro.runtime.messages.InvalidationHops` waves, each
  acknowledged with an :class:`~repro.runtime.messages.IngestAck` (the
  driver's barrier);
* the **request queue** carries
  :class:`~repro.runtime.messages.QueryRequest` /
  :class:`~repro.runtime.messages.StepRequest` sub-queries,
  :class:`~repro.runtime.messages.CachePut` write-backs and
  :class:`~repro.runtime.messages.StatsRequest` probes.

Ingest has strict priority: the loop drains the ingest queue completely
before taking one request, so an edge round is never queued behind a deep
backlog of queries (bounded staleness under load).  Both queues accept
the shared ``END_OF_STREAM`` sentinel for shutdown; any exception posts a
:class:`~repro.runtime.messages.ServerFailure` with the full traceback so
the driver re-raises instead of deadlocking — during boot as in any
later round.

The serving logic itself is :class:`ShardServer`, a plain object with no
process machinery — the protocol tests drive it in-process, and the
in-process :class:`~repro.serving.engine.ServingEngine` serves through one
(shard 0 of 1, owning every partition) behind a
:class:`~repro.runtime.transport.LocalTransport`.

Caching runs shard-local: each server owns the
:class:`~repro.serving.cache.ResultCache` slice for roots in its owned
partitions.  Fully-local results are assembled, cached and returned whole
at execution time; results that needed cross-shard continuations come
back from the driver as
:class:`CachePut` messages, **epoch-guarded**: the put carries the ingest
sequence number every contributing step reported, and the server accepts
only if that is uniform and still current — a result assembled across an
edge round that might have invalidated it is conservatively discarded.
Invalidation is the PR 5 radius-``|Eq|`` rule run distributed: the wave
BFS runs over local member adjacency, and ghosts it settles are forwarded
(via the driver) to their owning shard, which continues the wave.
"""

from __future__ import annotations

import queue as queue_module
import traceback
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.obs.format import flatten
from repro.runtime.messages import (
    END_OF_STREAM,
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
    check_schema,
)
from repro.serving.cache import ResultCache
from repro.serving.execution import (
    Continuation,
    RootResult,
    ShardView,
    enumerate_root,
    execute_step,
    splice_segments,
)
from repro.serving.stores import ShardStores

#: How long the request-queue poll blocks when idle.  Short, because an
#: ingest round arriving during a poll waits out the remainder.
REQUEST_POLL_SECONDS = 0.005

#: With obs enabled, a server ships a StatsReport after every this many
#: ingest rounds (the boot snapshot counts as the first).
STATS_EVERY = 4


class ShardServer:
    """The per-shard serving logic, free of any process/queue machinery.

    Its stores boot from the spec's snapshot unless ``stores`` is given —
    the in-process engine passes the one-shard slice it filled beside its
    routing index (:meth:`ShardStores.beside
    <repro.serving.stores.ShardStores.beside>`).
    """

    def __init__(self, spec: ServeSpec, stores: Optional[ShardStores] = None) -> None:
        self.spec = spec
        # Spec-driven obs opt-in: with the spawn start method the child
        # imports fresh, so the driver's enable() does not carry over —
        # the spec is the one switch that works for every start method.
        if spec.obs_enabled and not obs.enabled():
            obs.enable()
        self.shard_id = spec.shard_id
        if stores is None:
            stores = ShardStores.from_rows(
                spec.shard_id, spec.num_shards, spec.k, spec.members, spec.ghosts
            )
        self.stores = stores
        self.view = ShardView(self.stores)
        self.cache: Optional[ResultCache] = (
            ResultCache() if spec.cache_enabled else None
        )
        #: query name → invalidation radius |Eq| (never changes).
        self.query_depths: Dict[str, int] = dict(spec.query_depths)
        #: Last applied ingest sequence number — the cache epoch.  The boot
        #: snapshot is round 0.
        self.seq = 0
        #: query name → adopted plan signature (drives stale-plan drops).
        self._plan_sigs: Dict[str, Tuple] = {}
        #: The current round's settled invalidation distances; reset by each
        #: EdgeUpdate, threaded through that round's InvalidationHops waves.
        self._round_settled: Dict[int, int] = {}
        self.requests_served = 0
        self.steps_executed = 0
        self.hop_messages = 0
        self.ingest_rounds = 1
        #: CachePuts the epoch guard discarded (reported in ServerStats).
        self.cache_rejects = 0

    # ------------------------------------------------------------------
    # Ingest side
    # ------------------------------------------------------------------
    def apply_update(self, update: EdgeUpdate) -> IngestAck:
        """Apply one edge round; returns the ack with invalidation forwards
        (none when the driver marked the round ``invalidate=False``)."""
        self.seq = update.seq
        self._round_settled = {}
        stores = self.stores
        for vid, label_id, partition in update.vertices:
            stores.add_vertex(vid, label_id, partition)
        new_pairs: List[Tuple[int, int]] = []
        for row in update.edges:
            pair = stores.apply_edge(*row)
            if pair is not None:
                new_pairs.append(pair)
        for name in update.drop_queries:
            self._plan_sigs.pop(name, None)
            if self.cache is not None:
                self.cache.drop_query(name)
        forwards: List[Tuple[int, int]] = []
        if update.invalidate and self.cache is not None and new_pairs and self.query_depths:
            seeds = [(vid, 0) for pair in new_pairs for vid in pair]
            wave, forwards = stores.bfs_forward(
                seeds, max(self.query_depths.values()), self._round_settled
            )
            self._invalidate(wave)
        self.ingest_rounds += 1
        rows = tuple((vid, dist, self.stores.partition_of(vid)) for vid, dist in forwards)
        return IngestAck(self.shard_id, self.seq, len(new_pairs), rows)

    def apply_hops(self, message: InvalidationHops) -> IngestAck:
        """Continue the invalidation wave from another shard's forwards."""
        if message.seq != self.seq:  # pragma: no cover - barrier guarantees
            raise RuntimeError(f"invalidation wave for seq {message.seq} arrived at seq {self.seq}")
        forwards: List[Tuple[int, int]] = []
        if self.cache is not None and self.query_depths:
            wave, forwards = self.stores.bfs_forward(
                message.seeds, max(self.query_depths.values()), self._round_settled
            )
            self._invalidate(wave)
        rows = tuple((vid, dist, self.stores.partition_of(vid)) for vid, dist in forwards)
        return IngestAck(self.shard_id, self.seq, 0, rows)

    def _invalidate(self, wave: Dict[int, int]) -> None:
        if self.cache is None or not wave:
            return
        for name, depth in self.query_depths.items():
            roots = sorted(vid for vid, dist in wave.items() if dist <= depth)
            if roots:
                self.cache.invalidate_roots(name, roots)

    # ------------------------------------------------------------------
    # Request side
    # ------------------------------------------------------------------
    def _adopt_plan(self, plan) -> None:
        known = self._plan_sigs.get(plan.name)
        if known is None:
            self._plan_sigs[plan.name] = plan.signature
        elif known != plan.signature:
            # Normally announced through EdgeUpdate.drop_queries first; this
            # is the defensive path for a recompile racing a request.
            if self.cache is not None:
                self.cache.drop_query(plan.name)
            self._plan_sigs[plan.name] = plan.signature

    def handle_query(self, request: QueryRequest) -> StepReply:
        """Serve a root request: cache probe, then shard-local execution."""
        plan = request.plan
        root = request.root
        if not self.stores.owns_partition(request.root_partition):
            raise RuntimeError(
                f"shard {self.shard_id} received root {root} of partition "
                f"{request.root_partition}, which it does not own"
            )
        self._adopt_plan(plan)
        self.requests_served += 1
        if self.cache is not None:
            cached = self.cache.get((plan.name, root))
            if cached is not None:
                return StepReply(
                    request.request_id,
                    0,
                    self.shard_id,
                    self.seq,
                    (),
                    cached=True,
                    result=cached,
                )
        if self.stores.label_of.get(root) != plan.label_ids[0]:
            segments: Tuple = ()
        else:
            segments = tuple(enumerate_root(self.view, plan, root, request.root_partition))
        if self.cache is None:
            return StepReply(request.request_id, 0, self.shard_id, self.seq, segments)
        if any(isinstance(s, Continuation) for s in segments):
            # Other shards must finish it; the driver's assembled result
            # comes back later as a CachePut.
            return StepReply(request.request_id, 0, self.shard_id, self.seq, segments, False)
        # Fully shard-local: assemble once, cache it and reply with it.
        embeddings, hops, border = splice_segments(segments)
        result = RootResult(plan.name, root, tuple(embeddings), hops, border)
        self.cache.put((plan.name, root), result)
        return StepReply(request.request_id, 0, self.shard_id, self.seq, (), False, result)

    def handle_step(self, request: StepRequest) -> StepReply:
        """Execute a handed-off DFS subtree — the receiving end of a hop."""
        continuation = request.continuation
        if not self.stores.owns_partition(continuation.target_partition):
            raise RuntimeError(
                f"shard {self.shard_id} received a continuation for partition "
                f"{continuation.target_partition}, which it does not own"
            )
        pending = None
        if continuation.pending_cand is not None:
            pending = (
                continuation.pending_cand,
                continuation.pending_part,
                continuation.anchor_index,
                continuation.pending_added,
            )
        segments = execute_step(
            self.view,
            request.plan,
            continuation.depth,
            continuation.mapping,
            continuation.parts,
            continuation.crossings,
            pending,
        )
        self.steps_executed += 1
        self.hop_messages += 1
        return StepReply(
            request.request_id,
            request.step_id,
            self.shard_id,
            self.seq,
            tuple(segments),
        )

    def handle_cache_put(self, message: CachePut) -> None:
        """Accept a driver-assembled result if its epoch is still current."""
        if self.cache is None:
            return
        if message.seq != self.seq:
            # The result was computed against an older epoch; an edge round
            # in between may have invalidated it.  Discard conservatively.
            self.cache_rejects += 1
            return
        known = self._plan_sigs.get(message.query)
        if known is not None and known != message.signature:
            self.cache_rejects += 1
            return
        if known is None:
            self._plan_sigs[message.query] = message.signature
        self.cache.put((message.query, message.root), message.result)

    def stats_snapshot(self) -> ServerStats:
        stores = self.stores
        return ServerStats(
            shard_id=self.shard_id,
            seq=self.seq,
            members=stores.num_members,
            ghosts=stores.num_ghosts,
            edges=stores.num_edges,
            border_edges=stores.num_border_edges,
            requests_served=self.requests_served,
            steps_executed=self.steps_executed,
            hop_messages=self.hop_messages,
            ingest_rounds=self.ingest_rounds,
            cache_stats=self.cache.stats() if self.cache is not None else None,
            cache_rejects=self.cache_rejects,
        )

    def stats_report(self) -> StatsReport:
        """The periodic unsolicited telemetry message: the ServerStats
        counters flattened to dotted names, plus this process's obs
        registry snapshot (``obs.*``) when one is enabled."""
        metrics = {
            key: value
            for key, value in flatten(self.stats_snapshot().as_dict()).items()
            if value is not None
        }
        for key, value in obs.snapshot().items():
            name = f"obs.{key}"  # snapshot keys are already dotted strings
            metrics[name] = value
        return StatsReport(self.shard_id, self.seq, metrics)

    # ------------------------------------------------------------------
    # Message dispatch (shared by the process loop and in-process tests)
    # ------------------------------------------------------------------
    def handle_ingest_message(self, message):
        check_schema(message)
        if isinstance(message, EdgeUpdate):
            return self.apply_update(message)
        if isinstance(message, InvalidationHops):
            return self.apply_hops(message)
        raise RuntimeError(f"unexpected message on ingest queue: {message!r}")

    def handle_request_message(self, message):
        check_schema(message)
        if isinstance(message, QueryRequest):
            return self.handle_query(message)
        if isinstance(message, StepRequest):
            return self.handle_step(message)
        if isinstance(message, CachePut):
            self.handle_cache_put(message)
            return None
        if isinstance(message, StatsRequest):
            return self.stats_snapshot()
        raise RuntimeError(f"unexpected message on request queue: {message!r}")


def shard_server_main(spec: ServeSpec, ingest_queue, request_queue, out_queue) -> None:
    """Process entry point: boot, then multiplex the two queues until the
    sentinel.

    Booting builds the stores from ``spec``'s snapshot and posts its
    :class:`IngestAck` — round 0, which the driver's constructor barriers
    on.  Ingest priority: the ingest queue is drained completely before each
    request-queue poll, so edge rounds overtake any request backlog.  The
    request poll blocks briefly (:data:`REQUEST_POLL_SECONDS`) instead of
    spinning; the driver's barrier latency per round is bounded by it.
    """
    try:
        check_schema(spec)
        server = ShardServer(spec)
        out_queue.put(IngestAck(server.shard_id, server.seq, server.stores.num_edges))
        while True:
            while True:
                try:
                    message = ingest_queue.get_nowait()
                except queue_module.Empty:
                    break
                if message is END_OF_STREAM:
                    return
                reply = server.handle_ingest_message(message)
                out_queue.put(reply)
                # Piggyback periodic telemetry on the reply queue, after
                # the ack so the driver's barrier never waits on it.
                if (
                    spec.obs_enabled
                    and isinstance(message, EdgeUpdate)
                    and server.ingest_rounds % STATS_EVERY == 0
                ):
                    out_queue.put(server.stats_report())
            try:
                message = request_queue.get(timeout=REQUEST_POLL_SECONDS)
            except queue_module.Empty:
                continue
            if message is END_OF_STREAM:
                return
            reply = server.handle_request_message(message)
            if reply is not None:
                out_queue.put(reply)
    except BaseException as exc:  # noqa: BLE001 - a silent server deadlocks the driver
        failure = ServerFailure(
            shard_id=spec.shard_id,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )
        out_queue.put(failure)
