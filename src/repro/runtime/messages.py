"""Wire types of the sharded runtime.

Everything that crosses the driver ↔ worker process boundary is defined
here, so the protocol is visible in one place:

* **Batches** travel driver → worker as plain lists of
  ``(u, u_label, v, v_label)`` tuples — the fields of an
  :class:`~repro.graph.stream.EdgeEvent`, carrying the *original* vertex
  objects.  Shipping objects (not interner ids) is deliberate: the hash
  partitioner places by a stable hash of the vertex's own repr, so a
  worker that saw ids instead of objects would place differently than the
  single-process path.  Vertices must therefore be picklable (ints,
  strings, tuples — anything a dataset realistically uses).
* ``None`` is the end-of-stream sentinel on a worker's input queue (and
  on both queues of a live shard server).
* :class:`WorkerSpec` tells a worker how to build its partitioner — the
  registry name plus everything `registry.create` wants.  Stream-level
  totals (``expected_vertices`` / ``expected_edges``) are *global*: Fennel's
  α and every capacity are computed from the whole stream's shape, not the
  shard's, so all workers price balance identically.
* :class:`ShardResult` travels worker → driver exactly once: the shard's
  assignment slice (vertex-keyed — local interner ids mean nothing
  outside the worker), matcher/partitioner counters and timings.
* :class:`WorkerFailure` replaces the result when a worker dies; the
  driver re-raises it as a ``RuntimeError`` instead of hanging.

The **live serving** protocol (PR 8) adds the shard-server message set:
:class:`ServeSpec` boots a server; :class:`EdgeUpdate` /
:class:`InvalidationHops` / :class:`IngestAck` run the barriered ingest
round (edge rows in, cache-invalidation wave forwards out);
:class:`QueryRequest` / :class:`StepRequest` / :class:`StepReply` carry
the distributed embedding DFS (a reply's segments interleave literal
results with :class:`~repro.serving.execution.Continuation` handoffs);
:class:`CachePut` writes a driver-assembled multi-shard result back to
the root owner's cache, epoch-guarded by the ingest sequence number;
:class:`StatsRequest` / :class:`ServerStats` snapshot a server;
:class:`ServerFailure` is the live twin of :class:`WorkerFailure`.

Wire discipline (enforced by ``tests/test_live_serving.py`` and the
detlint ``MP-pickle`` rule): every message class declares
``__slots__``, pickles via a compact ``__reduce__`` tuple encoding (no
per-instance ``__dict__`` crosses a queue), and carries the protocol's
:data:`SCHEMA_VERSION` as a class attribute so a mixed-version
driver/server pair fails loudly at handshake rather than corrupting
state mid-stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.graph.labelled_graph import Vertex

#: Version of the wire protocol defined by this module.  Bump on any
#: field change; :func:`check_schema` rejects mismatched peers.
SCHEMA_VERSION = 4

#: End-of-stream sentinel on a worker input queue.
END_OF_STREAM = None

#: One batch row: the four fields of an EdgeEvent.
BatchRow = Tuple[Vertex, str, Vertex, str]


def check_schema(message: object) -> None:
    """Raise if ``message`` was produced by a different protocol version."""
    version = getattr(message, "schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise RuntimeError(
            f"wire schema mismatch: message {type(message).__name__} has "
            f"version {version}, this process speaks {SCHEMA_VERSION}"
        )


class GraphTotals:
    """A stream's a-priori shape: the two totals factories may ask of
    ``ctx.graph`` (Fennel's α, capacity sizing) without materialising a
    :class:`~repro.graph.labelled_graph.LabelledGraph` in every worker."""

    __slots__ = ("num_vertices", "num_edges")
    schema_version = SCHEMA_VERSION

    def __init__(self, num_vertices: int, num_edges: int) -> None:
        self.num_vertices = num_vertices
        self.num_edges = num_edges

    def __reduce__(self):
        return (GraphTotals, (self.num_vertices, self.num_edges))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GraphTotals n={self.num_vertices} m={self.num_edges}>"


class WorkerSpec:
    """Everything a worker needs to build its partitioner from scratch."""

    __slots__ = (
        "shard_id",
        "system",
        "k",
        "expected_vertices",
        "expected_edges",
        "imbalance",
        "window_size",
        "seed",
        "workload",
        "extra",
    )
    schema_version = SCHEMA_VERSION

    def __init__(
        self,
        shard_id: int,
        system: str,
        k: int,
        expected_vertices: int,
        expected_edges: int,
        imbalance: float = 1.1,
        window_size: Optional[int] = None,
        seed: int = 0,
        workload: Optional[object] = None,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        self.shard_id = shard_id
        self.system = system
        self.k = k
        self.expected_vertices = expected_vertices
        self.expected_edges = expected_edges
        self.imbalance = imbalance
        #: Per-shard window (the driver divides the global budget by the
        #: shard count before building specs); ``None`` for windowless systems.
        self.window_size = window_size
        self.seed = seed
        #: Loom's workload (picklable); ``None`` for workload-oblivious systems.
        self.workload = workload
        #: Strategy-specific kwargs forwarded to the registry factory.
        self.extra: Dict[str, object] = extra if extra is not None else {}

    def __reduce__(self):
        return (
            WorkerSpec,
            (
                self.shard_id,
                self.system,
                self.k,
                self.expected_vertices,
                self.expected_edges,
                self.imbalance,
                self.window_size,
                self.seed,
                self.workload,
                self.extra,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WorkerSpec shard={self.shard_id} system={self.system!r} k={self.k}>"


class ShardResult:
    """One worker's complete output, sent once after the sentinel."""

    __slots__ = (
        "shard_id",
        "assignment",
        "edges",
        "batches",
        "ingest_seconds",
        "worker_seconds",
        "matcher_stats",
        "partitioner_stats",
        "queue_wait_seconds",
    )
    schema_version = SCHEMA_VERSION

    def __init__(
        self,
        shard_id: int,
        assignment: List[Tuple[Vertex, int]],
        edges: int,
        batches: int,
        ingest_seconds: float,
        worker_seconds: float,
        matcher_stats: Optional[Dict[str, int]] = None,
        partitioner_stats: Optional[Dict[str, int]] = None,
        queue_wait_seconds: float = 0.0,
    ) -> None:
        self.shard_id = shard_id
        #: The shard's assignment slice, in the worker's first-seen vertex
        #: order (deterministic for a fixed shard stream).
        self.assignment = assignment
        self.edges = edges
        self.batches = batches
        #: Seconds spent inside ingest_batch/finalize (excludes queue waits).
        self.ingest_seconds = ingest_seconds
        #: Wall seconds from worker start to result send (includes queue waits).
        self.worker_seconds = worker_seconds
        self.matcher_stats = matcher_stats
        self.partitioner_stats: Dict[str, int] = (
            partitioner_stats if partitioner_stats is not None else {}
        )
        #: Seconds the worker spent blocked on ``in_queue.get`` — the
        #: feed-side backpressure signal (out-of-band, monotonic-timed).
        self.queue_wait_seconds = queue_wait_seconds

    @property
    def edges_per_second(self) -> float:
        """Shard-local ingest rate (excluding time blocked on the queue)."""
        return self.edges / self.ingest_seconds if self.ingest_seconds > 0 else float("inf")

    def __reduce__(self):
        return (
            ShardResult,
            (
                self.shard_id,
                self.assignment,
                self.edges,
                self.batches,
                self.ingest_seconds,
                self.worker_seconds,
                self.matcher_stats,
                self.partitioner_stats,
                self.queue_wait_seconds,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardResult shard={self.shard_id} edges={self.edges}>"


class WorkerFailure:
    """Sent instead of a :class:`ShardResult` when a worker raises."""

    __slots__ = ("shard_id", "error", "traceback")
    schema_version = SCHEMA_VERSION

    def __init__(self, shard_id: int, error: str, traceback: str) -> None:
        self.shard_id = shard_id
        self.error = error
        self.traceback = traceback

    def __reduce__(self):
        return (WorkerFailure, (self.shard_id, self.error, self.traceback))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WorkerFailure shard={self.shard_id} {self.error!r}>"


# ----------------------------------------------------------------------
# Live shard-server protocol (PR 8)
# ----------------------------------------------------------------------


class ServeSpec:
    """Boots one live shard server: identity, topology, cache policy.

    ``query_depths`` maps query name → invalidation radius (``|Eq|``, the
    pattern's edge count) — the only per-query fact invalidation needs and
    the only one that never changes as plans recompile.  Full plans arrive
    later, riding on each request.
    """

    __slots__ = (
        "shard_id",
        "num_shards",
        "k",
        "query_depths",
        "cache_enabled",
        "cache_capacity",
        "obs_enabled",
        "stats_every",
    )
    schema_version = SCHEMA_VERSION

    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        k: int,
        query_depths: Tuple[Tuple[str, int], ...],
        cache_enabled: bool = True,
        cache_capacity: Optional[int] = None,
        obs_enabled: bool = False,
        stats_every: int = 0,
    ) -> None:
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.k = k
        self.query_depths = tuple(query_depths)
        self.cache_enabled = cache_enabled
        self.cache_capacity = cache_capacity
        #: Switch the server process's repro.obs registry on at boot.
        self.obs_enabled = obs_enabled
        #: Ship a :class:`StatsReport` after every N ingest rounds
        #: (0 = never) — telemetry piggybacked on the reply queue.
        self.stats_every = stats_every

    def __reduce__(self):
        return (
            ServeSpec,
            (
                self.shard_id,
                self.num_shards,
                self.k,
                self.query_depths,
                self.cache_enabled,
                self.cache_capacity,
                self.obs_enabled,
                self.stats_every,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServeSpec shard={self.shard_id}/{self.num_shards} k={self.k}>"


class EdgeUpdate:
    """One ingest round's delta for one shard, driver → server.

    ``vertices`` announce newly placed vertices in the shard's owned
    partitions as ``(vid, label_id, partition)``; ``edges`` are visible
    new edges with at least one owned endpoint as
    ``(uid, u_label, u_part, vid, v_label, v_part)`` — ghost endpoint
    metadata rides on the row.  ``drop_queries`` names queries whose plan
    was re-rooted this round (cached entries are meaningless under the new
    root).  Sent to *every* shard each round — possibly with empty rows —
    so the ingest sequence number advances uniformly across the cluster
    (the cache-epoch rule compares them).  ``invalidate`` is ``False``
    while the driver has admitted no request: every cache in the cluster is
    then empty, so the shard skips the invalidation wave.
    """

    __slots__ = ("seq", "vertices", "edges", "drop_queries", "invalidate")
    schema_version = SCHEMA_VERSION

    def __init__(
        self,
        seq: int,
        vertices: Tuple[Tuple[int, int, int], ...] = (),
        edges: Tuple[Tuple[int, int, int, int, int, int], ...] = (),
        drop_queries: Tuple[str, ...] = (),
        invalidate: bool = True,
    ) -> None:
        self.seq = seq
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.drop_queries = tuple(drop_queries)
        self.invalidate = invalidate

    def __reduce__(self):
        return (
            EdgeUpdate,
            (self.seq, self.vertices, self.edges, self.drop_queries, self.invalidate),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EdgeUpdate seq={self.seq} edges={len(self.edges)}>"


class InvalidationHops:
    """A continuation of the invalidation BFS wave, driver → server.

    ``seeds`` are ``(vid, dist)`` pairs another shard settled on ghosts
    this server owns; the server resumes the wave from them (distances
    strictly increase along forwards, which bounds the rounds).
    """

    __slots__ = ("seq", "seeds")
    schema_version = SCHEMA_VERSION

    def __init__(self, seq: int, seeds: Tuple[Tuple[int, int], ...]) -> None:
        self.seq = seq
        self.seeds = tuple(seeds)

    def __reduce__(self):
        return (InvalidationHops, (self.seq, self.seeds))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InvalidationHops seq={self.seq} seeds={len(self.seeds)}>"


class IngestAck:
    """Barrier acknowledgement for one ingest/invalidation wave,
    server → driver.  ``forwards`` lists ghost distances the wave settled,
    as ``(vid, dist, partition)`` — the driver routes each to the
    partition's owning shard in the next :class:`InvalidationHops` wave.
    """

    __slots__ = ("shard_id", "seq", "new_edges", "forwards")
    schema_version = SCHEMA_VERSION

    def __init__(
        self,
        shard_id: int,
        seq: int,
        new_edges: int,
        forwards: Tuple[Tuple[int, int, int], ...] = (),
    ) -> None:
        self.shard_id = shard_id
        self.seq = seq
        self.new_edges = new_edges
        self.forwards = tuple(forwards)

    def __reduce__(self):
        return (IngestAck, (self.shard_id, self.seq, self.new_edges, self.forwards))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IngestAck shard={self.shard_id} seq={self.seq}>"


class QueryRequest:
    """Serve one ``(query, root)``: sent to the shard owning the root's
    partition.  Carries the full compiled plan — plans are a few dozen
    ints, and riding along lets the server adopt recompiled plans lazily
    (signature mismatch with a cached entry reads as a miss).
    """

    __slots__ = ("request_id", "plan", "root", "root_partition")
    schema_version = SCHEMA_VERSION

    def __init__(self, request_id: int, plan, root: int, root_partition: int) -> None:
        self.request_id = request_id
        self.plan = plan
        self.root = root
        self.root_partition = root_partition

    def __reduce__(self):
        return (QueryRequest, (self.request_id, self.plan, self.root, self.root_partition))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueryRequest #{self.request_id} {self.plan.name!r} root={self.root}>"


class StepRequest:
    """Resume a handed-off DFS subtree at the shard owning its target
    partition — the cross-partition hop as an actual message."""

    __slots__ = ("request_id", "step_id", "plan", "continuation")
    schema_version = SCHEMA_VERSION

    def __init__(self, request_id: int, step_id: int, plan, continuation) -> None:
        self.request_id = request_id
        self.step_id = step_id
        self.plan = plan
        self.continuation = continuation

    def __reduce__(self):
        return (StepRequest, (self.request_id, self.step_id, self.plan, self.continuation))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StepRequest #{self.request_id}.{self.step_id} {self.plan.name!r}>"


class StepReply:
    """One step's output, server → driver.

    For a root step answered from the shard cache, ``result`` carries the
    complete :class:`~repro.serving.engine.RootResult` and ``segments`` is
    empty; otherwise ``segments`` is the ordered literal/continuation list
    from :func:`~repro.serving.execution.execute_step`.  ``seq`` is the
    server's applied ingest sequence at execution time — the driver only
    writes an assembled result back (:class:`CachePut`) when every
    contributing step saw the same epoch.  ``cached`` is ``True``/``False``
    for root steps (the hit/miss accounting), ``None`` for continuations.
    """

    __slots__ = ("request_id", "step_id", "shard_id", "seq", "segments", "cached", "result")
    schema_version = SCHEMA_VERSION

    def __init__(
        self,
        request_id: int,
        step_id: int,
        shard_id: int,
        seq: int,
        segments: Tuple = (),
        cached: Optional[bool] = None,
        result=None,
    ) -> None:
        self.request_id = request_id
        self.step_id = step_id
        self.shard_id = shard_id
        self.seq = seq
        self.segments = tuple(segments)
        self.cached = cached
        self.result = result

    def __reduce__(self):
        return (
            StepReply,
            (
                self.request_id,
                self.step_id,
                self.shard_id,
                self.seq,
                self.segments,
                self.cached,
                self.result,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StepReply #{self.request_id}.{self.step_id} shard={self.shard_id}>"


class CachePut:
    """Write a driver-assembled multi-shard result into the root owner's
    cache.  ``seq`` is the uniform epoch every contributing step reported;
    the server accepts only if it still *is* that epoch (an intervening
    EdgeUpdate could have invalidated what the result was computed from)
    and the plan signature still matches."""

    __slots__ = ("query", "signature", "root", "result", "seq")
    schema_version = SCHEMA_VERSION

    def __init__(self, query: str, signature: Tuple, root: int, result, seq: int) -> None:
        self.query = query
        self.signature = tuple(signature)
        self.root = root
        self.result = result
        self.seq = seq

    def __reduce__(self):
        return (CachePut, (self.query, self.signature, self.root, self.result, self.seq))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CachePut {self.query!r} root={self.root} seq={self.seq}>"


class StatsRequest:
    """Ask a server for a :class:`ServerStats` snapshot."""

    __slots__ = ("shard_id",)
    schema_version = SCHEMA_VERSION

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id

    def __reduce__(self):
        return (StatsRequest, (self.shard_id,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StatsRequest shard={self.shard_id}>"


class ServerStats:
    """One live server's counters, server → driver on :class:`StatsRequest`."""

    __slots__ = (
        "shard_id",
        "seq",
        "members",
        "ghosts",
        "edges",
        "border_edges",
        "requests_served",
        "steps_executed",
        "hop_messages",
        "ingest_rounds",
        "cache_stats",
    )
    schema_version = SCHEMA_VERSION

    def __init__(
        self,
        shard_id: int,
        seq: int,
        members: int,
        ghosts: int,
        edges: int,
        border_edges: int,
        requests_served: int,
        steps_executed: int,
        hop_messages: int,
        ingest_rounds: int,
        cache_stats: Optional[Dict[str, float]] = None,
    ) -> None:
        self.shard_id = shard_id
        self.seq = seq
        self.members = members
        self.ghosts = ghosts
        self.edges = edges
        self.border_edges = border_edges
        self.requests_served = requests_served
        #: Continuation steps executed for other shards' requests.
        self.steps_executed = steps_executed
        #: StepRequests received — the transport-level hop count.
        self.hop_messages = hop_messages
        self.ingest_rounds = ingest_rounds
        self.cache_stats = cache_stats

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __reduce__(self):
        return (
            ServerStats,
            (
                self.shard_id,
                self.seq,
                self.members,
                self.ghosts,
                self.edges,
                self.border_edges,
                self.requests_served,
                self.steps_executed,
                self.hop_messages,
                self.ingest_rounds,
                self.cache_stats,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ServerStats shard={self.shard_id} seq={self.seq} "
            f"requests={self.requests_served}>"
        )


class StatsReport:
    """Unsolicited periodic shard telemetry, server → driver.

    Unlike the request/response :class:`StatsRequest`/:class:`ServerStats`
    pair, these ride the existing reply queue on the server's own cadence
    (``ServeSpec.stats_every`` ingest rounds) and the driver's message
    loop absorbs them out-of-band — they never interleave with, block, or
    reorder serving replies, so enabling them cannot change results.
    ``metrics`` is a flat dotted-name dict (the shard's obs snapshot
    merged over its :meth:`ServerStats.as_dict` counters).
    """

    __slots__ = ("shard_id", "seq", "metrics")
    schema_version = SCHEMA_VERSION

    def __init__(self, shard_id: int, seq: int, metrics: Dict[str, object]) -> None:
        self.shard_id = shard_id
        #: The server's ingest epoch when the snapshot was taken.
        self.seq = seq
        self.metrics = metrics

    def __reduce__(self):
        return (StatsReport, (self.shard_id, self.seq, self.metrics))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StatsReport shard={self.shard_id} seq={self.seq} n={len(self.metrics)}>"


class ServerFailure:
    """Sent by a live shard server when it raises — the driver re-raises
    with the embedded traceback instead of deadlocking (the live twin of
    :class:`WorkerFailure`)."""

    __slots__ = ("shard_id", "error", "traceback")
    schema_version = SCHEMA_VERSION

    def __init__(self, shard_id: int, error: str, traceback: str) -> None:
        self.shard_id = shard_id
        self.error = error
        self.traceback = traceback

    def __reduce__(self):
        return (ServerFailure, (self.shard_id, self.error, self.traceback))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServerFailure shard={self.shard_id} {self.error!r}>"


#: Every class that may cross a queue — the pickle-roundtrip test and the
#: detlint MP-pickle allow-list both read this.
WIRE_TYPES: Tuple[type, ...] = (
    GraphTotals,
    WorkerSpec,
    ShardResult,
    WorkerFailure,
    ServeSpec,
    EdgeUpdate,
    InvalidationHops,
    IngestAck,
    QueryRequest,
    StepRequest,
    StepReply,
    CachePut,
    StatsRequest,
    ServerStats,
    StatsReport,
    ServerFailure,
)
