"""Wire types of the live cluster.

Everything that crosses the driver ↔ shard-server process boundary is
defined here, so the protocol is visible in one place.  ``None``
(:data:`END_OF_STREAM`) is the shutdown sentinel on both queues of a
shard server; every other message is one of the classes below:
:class:`ServeSpec` boots a server — identity, topology, cache policy and
the shard's slice of the graph, which the server acks as round 0 with an
:class:`IngestAck`; :class:`EdgeUpdate` / :class:`InvalidationHops` /
:class:`IngestAck` run every later barriered ingest round (edge rows in,
cache-invalidation wave forwards out);
:class:`QueryRequest` / :class:`StepRequest` / :class:`StepReply` carry
the distributed embedding DFS (a reply's segments interleave literal
results with :class:`~repro.serving.execution.Continuation` handoffs);
:class:`CachePut` writes a driver-assembled multi-shard result back to
the root owner's cache, epoch-guarded by the ingest sequence number;
:class:`StatsRequest` / :class:`ServerStats` snapshot a server,
:class:`StatsReport` is its unsolicited periodic twin; and
:class:`ServerFailure` replaces a reply when a server raises — the driver
re-raises it (:mod:`repro.runtime.liveness`) instead of hanging.

Rows carry interner ids, label ids and partitions, never vertex objects:
the driver owns the one interner, so an id means the same thing in every
process.

Wire discipline (enforced by ``tests/test_live_serving.py`` and the
detlint ``MP-pickle`` rule): every message class has ``__slots__``,
pickles via a compact ``__reduce__`` tuple encoding (no per-instance
``__dict__`` crosses a queue), and carries the protocol's
:data:`SCHEMA_VERSION` as a class attribute so a mixed-version
driver/server pair fails loudly at handshake rather than corrupting
state mid-stream.

The schema is **declared once**: a message class is a docstring plus one
``FIELDS`` table of ``(name, default, convert)`` rows, in constructor
order — ``default`` is :data:`REQUIRED` or the argument's default,
``convert`` is ``None`` or a callable the constructor passes the argument
through (``tuple`` freezes row sequences).  :class:`_WireType` derives
``__slots__``, ``__init__`` and ``__reduce__`` from the table when the
module is imported, as plain compiled functions (the ``namedtuple``
technique — nothing is reflected per call), so adding a field is one row.
"""

from __future__ import annotations

import reprlib
from typing import Dict, List, Sequence, Tuple

#: Version of the wire protocol defined by this module.  Bump on any
#: field change; :func:`check_schema` rejects mismatched peers.
SCHEMA_VERSION = 7

#: Shutdown sentinel on both input queues of a shard server.
END_OF_STREAM = None


def check_schema(message: object) -> None:
    """Raise if ``message`` was produced by a different protocol version."""
    version = getattr(message, "schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise RuntimeError(
            f"wire schema mismatch: message {type(message).__name__} has "
            f"version {version}, this process speaks {SCHEMA_VERSION}"
        )


#: ``default`` of a field the constructor requires.
REQUIRED = object()


def _derive_methods(cls: type, fields: Tuple[Tuple[str, object, object], ...]) -> None:
    """Compile ``cls.__init__`` and ``cls.__reduce__`` from a field table.

    The sources are what one would write by hand — positional parameters
    in table order, one assignment per field, ``(cls, (self.a, self.b))``
    as the reduce value — so a generated message constructs and pickles at
    the hand-written cost and to the same bytes.
    """
    params: List[str] = []
    body: List[str] = []
    defaults: List[object] = []
    namespace: Dict[str, object] = {"__name__": cls.__module__, "_cls": cls}
    for name, default, convert in fields:
        if default is REQUIRED:
            params.append(name)
        else:
            params.append(f"{name}=None")  # the value itself goes into __defaults__
            defaults.append(default)
        if convert is None:
            body.append(f"self.{name} = {name}")
        else:
            hook = f"_convert_{name}"
            namespace[hook] = convert
            body.append(f"self.{name} = {hook}({name})")
    state = "".join(f"self.{name}, " for name, _default, _convert in fields)
    source = (
        f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body) + "\n"
        f"def __reduce__(self):\n    return (_cls, ({state}))\n"
    )
    exec(source, namespace)  # the source holds nothing but names from the tables below
    namespace["__init__"].__defaults__ = tuple(defaults)
    for method in (namespace["__init__"], namespace["__reduce__"]):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)


class _WireType(type):
    """Metaclass of the wire classes: turns a ``FIELDS`` table in the class
    body into ``__slots__`` (which must exist before the class does) and
    the derived ``__init__`` / ``__reduce__``.  A subclass that declares no
    table of its own inherits its parent's schema untouched."""

    #: Every class declared with a table, in declaration order.
    declared: List[type] = []

    def __new__(mcls, name, bases, namespace):
        fields = namespace.get("FIELDS")
        if fields is not None:
            namespace["__slots__"] = tuple(field for field, _default, _convert in fields)
        cls = super().__new__(mcls, name, bases, namespace)
        if fields is not None:
            _derive_methods(cls, fields)
            mcls.declared.append(cls)
        return cls


class _Wire(metaclass=_WireType):
    """Base of every message: the schema version, and no ``__dict__``."""

    __slots__ = ()
    schema_version = SCHEMA_VERSION
    #: ``(name, default, convert)`` per field, in constructor order.
    FIELDS: Tuple[Tuple[str, object, object], ...]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # reprlib bounds every value: a round's edge rows must not flood a log.
        shown = (f"{name}={reprlib.repr(getattr(self, name))}" for name, _d, _c in self.FIELDS)
        return f"<{type(self).__name__} {' '.join(shown)}>"


class ServeSpec(_Wire):
    """Boots one live shard server: identity, topology, cache policy and
    its boot snapshot.

    ``query_depths`` maps query name → invalidation radius (``|Eq|``, the
    pattern's edge count) — the only per-query fact invalidation needs and
    the only one that never changes as plans recompile.  Full plans arrive
    later, riding on each request.

    The snapshot is the shard's slice of the graph the cluster is built
    over: ``members`` holds ``(vid, label_id, partition, nbrs)`` for every
    placed vertex of an owned partition, ``nbrs`` the sorted ids of its
    visible neighbours, and ``ghosts`` holds ``(vid, label_id,
    partition)`` for every off-shard neighbour of a member.  Both are empty
    for a cluster booted over an empty graph.  The spec is a ``Process``
    argument, so the snapshot never crosses a queue: the server inherits
    it under ``fork`` and unpickles it once under ``spawn``.
    """

    FIELDS = (
        ("shard_id", REQUIRED, None),
        ("num_shards", REQUIRED, None),
        ("k", REQUIRED, None),
        ("query_depths", REQUIRED, tuple),
        ("cache_enabled", True, None),
        #: Switch the server process's repro.obs registry on at boot, and
        #: with it the periodic :class:`StatsReport`.
        ("obs_enabled", False, None),
        ("members", (), tuple),
        ("ghosts", (), tuple),
    )


class EdgeUpdate(_Wire):
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

    FIELDS = (
        ("seq", REQUIRED, None),
        ("vertices", (), tuple),
        ("edges", (), tuple),
        ("drop_queries", (), tuple),
        ("invalidate", True, None),
    )


class InvalidationHops(_Wire):
    """A continuation of the invalidation BFS wave, driver → server.

    ``seeds`` are ``(vid, dist)`` pairs another shard settled on ghosts
    this server owns; the server resumes the wave from them (distances
    strictly increase along forwards, which bounds the rounds).
    """

    FIELDS = (
        ("seq", REQUIRED, None),
        ("seeds", REQUIRED, tuple),
    )


class IngestAck(_Wire):
    """Barrier acknowledgement for one ingest/invalidation wave — or, with
    ``seq`` 0 and no forwards, for a server's boot snapshot — server →
    driver.  ``forwards`` lists ghost distances the wave settled,
    as ``(vid, dist, partition)`` — the driver routes each to the
    partition's owning shard in the next :class:`InvalidationHops` wave.
    """

    FIELDS = (
        ("shard_id", REQUIRED, None),
        ("seq", REQUIRED, None),
        ("new_edges", REQUIRED, None),
        ("forwards", (), tuple),
    )


class QueryRequest(_Wire):
    """Serve one ``(query, root)``: sent to the shard owning the root's
    partition.  Carries the full compiled plan — plans are a few dozen
    ints, and riding along lets the server adopt recompiled plans lazily
    (signature mismatch with a cached entry reads as a miss).
    """

    FIELDS = (
        ("request_id", REQUIRED, None),
        ("plan", REQUIRED, None),
        ("root", REQUIRED, None),
        ("root_partition", REQUIRED, None),
    )


class StepRequest(_Wire):
    """Resume a handed-off DFS subtree at the shard owning its target
    partition — the cross-partition hop as an actual message."""

    FIELDS = (
        ("request_id", REQUIRED, None),
        ("step_id", REQUIRED, None),
        ("plan", REQUIRED, None),
        ("continuation", REQUIRED, None),
    )


class StepReply(_Wire):
    """One step's output, server → driver.

    For a root step the shard answered whole — from its cache, or, with
    the cache on, by a fully shard-local execution it just cached —
    ``result`` carries the complete
    :class:`~repro.serving.execution.RootResult` and ``segments`` is
    empty; otherwise ``segments`` is the ordered literal/continuation list
    from :func:`~repro.serving.execution.execute_step`.  ``seq`` is the
    server's applied ingest sequence at execution time — the driver only
    writes an assembled result back (:class:`CachePut`) when every
    contributing step saw the same epoch.  ``cached`` is ``True``/``False``
    for root steps (the hit/miss accounting), ``None`` for continuations.
    """

    FIELDS = (
        ("request_id", REQUIRED, None),
        ("step_id", REQUIRED, None),
        ("shard_id", REQUIRED, None),
        ("seq", REQUIRED, None),
        ("segments", (), tuple),
        ("cached", None, None),
        ("result", None, None),
    )


class CachePut(_Wire):
    """Write a driver-assembled multi-shard result into the root owner's
    cache.  ``seq`` is the uniform epoch every contributing step reported;
    the server accepts only if it still *is* that epoch (an intervening
    EdgeUpdate could have invalidated what the result was computed from)
    and the plan signature still matches."""

    FIELDS = (
        ("query", REQUIRED, None),
        ("signature", REQUIRED, tuple),
        ("root", REQUIRED, None),
        ("result", REQUIRED, None),
        ("seq", REQUIRED, None),
    )


class StatsRequest(_Wire):
    """Ask a server for a :class:`ServerStats` snapshot."""

    FIELDS = (("shard_id", REQUIRED, None),)


class ServerStats(_Wire):
    """One live server's counters, server → driver on :class:`StatsRequest`."""

    FIELDS = (
        ("shard_id", REQUIRED, None),
        ("seq", REQUIRED, None),
        ("members", REQUIRED, None),
        ("ghosts", REQUIRED, None),
        ("edges", REQUIRED, None),
        ("border_edges", REQUIRED, None),
        ("requests_served", REQUIRED, None),
        #: Continuation steps executed for other shards' requests.
        ("steps_executed", REQUIRED, None),
        #: StepRequests received — the transport-level hop count.
        ("hop_messages", REQUIRED, None),
        ("ingest_rounds", REQUIRED, None),
        ("cache_stats", None, None),
        #: CachePuts discarded by the epoch guard (stale ``seq`` or plan
        #: signature) — results assembled across an edge round.
        ("cache_rejects", 0, None),
    )

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}


class StatsReport(_Wire):
    """Unsolicited periodic shard telemetry, server → driver.

    Unlike the request/response :class:`StatsRequest`/:class:`ServerStats`
    pair, these ride the existing reply queue on the server's own cadence
    (every :data:`~repro.runtime.server.STATS_EVERY` ingest rounds, sent
    only when ``ServeSpec.obs_enabled``) and the driver's message
    loop absorbs them out-of-band — they never interleave with, block, or
    reorder serving replies, so enabling them cannot change results.
    ``metrics`` is a flat dotted-name dict (the shard's obs snapshot
    merged over its :meth:`ServerStats.as_dict` counters).
    """

    FIELDS = (
        ("shard_id", REQUIRED, None),
        #: The server's ingest epoch when the snapshot was taken.
        ("seq", REQUIRED, None),
        ("metrics", REQUIRED, None),
    )


class ServerFailure(_Wire):
    """Sent by a live shard server when it raises — the driver re-raises
    with the embedded traceback instead of deadlocking."""

    FIELDS = (
        ("shard_id", REQUIRED, None),
        ("error", REQUIRED, None),
        ("traceback", REQUIRED, None),
    )


#: Every class that may cross a queue — the wire tests sample each one.
WIRE_TYPES: Tuple[type, ...] = tuple(_WireType.declared)


def shard_of_partition(partition: int, num_shards: int) -> int:
    """The shard that owns ``partition`` — the cluster's placement rule."""
    return partition % num_shards


def edge_updates(
    index,
    num_shards: int,
    seq: int,
    edge_pairs: Sequence[Tuple[int, int]],
    drop_queries: Tuple[str, ...],
    invalidate: bool,
) -> List[EdgeUpdate]:
    """One ingest round as an :class:`EdgeUpdate` per shard, every serving
    back end's one way to ship a round.

    ``index`` is the front end's :class:`~repro.serving.stores.RoutingIndex`:
    the vertex rows it queued since the last round are drained here and go
    to their partition's shard; each visible new edge in ``edge_pairs``
    becomes one row, sent to the shard of each endpoint's partition (once
    when both are the same shard).
    """
    vertices: List[List[Tuple[int, int, int]]] = [[] for _ in range(num_shards)]
    edges: List[List[Tuple[int, int, int, int, int, int]]] = [[] for _ in range(num_shards)]
    label_of = index.label_id_of
    part_of = index.state.partition_of_id
    for row in index.take_new_vertices():
        vertices[shard_of_partition(row[2], num_shards)].append(row)
    for uid, vid in edge_pairs:
        up, vp = part_of(uid), part_of(vid)
        row = (uid, label_of(uid), up, vid, label_of(vid), vp)
        su, sv = shard_of_partition(up, num_shards), shard_of_partition(vp, num_shards)
        edges[su].append(row)
        if sv != su:
            edges[sv].append(row)
    return [
        EdgeUpdate(seq, tuple(vertices[shard]), tuple(edges[shard]), drop_queries, invalidate)
        for shard in range(num_shards)
    ]
