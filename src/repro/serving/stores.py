"""The serving data layer: one routing index, one adjacency store.

A :class:`RoutingIndex` is built from a
:class:`~repro.graph.labelled_graph.LabelledGraph` plus a
:class:`~repro.partitioning.state.PartitionState` assignment and keeps what
routing and request admission need: per partition a label index (label id
→ sorted member ids) that feeds root-candidate scans and the routers, plus
the pending buffer.  Every serving front end stands on one.
:class:`ShardStores` holds the adjacency of the partitions one shard
server owns, on dense interner ids (sorted neighbour lists: the flat
sorted runs are what the executor's inner loop scans).  A live cluster's
shards boot their slices from the driver's cold pass and grow by wire
rows; the in-process engine runs one shard that owns every partition,
whose slice (:meth:`ShardStores.beside`) is filled by the same pass that
fills the index.

Each visible edge is held once per endpoint, in the endpoints' sorted
neighbour lists, and nowhere else: edge membership is a bisection of one
endpoint's list.  The routing index keeps no adjacency and therefore no
edge set; it relies on the front end (:meth:`ServingFrontEnd.ingest
<repro.runtime.frontend.ServingFrontEnd.ingest>`) forwarding each edge once,
which the graph's own ``add_edge`` decides.

The index is **online**: :meth:`RoutingIndex.ingest_edge` admits a
streamed edge the moment both endpoints have been *assigned* by the
partitioner.  Edges whose endpoint is still unplaced (Loom holds vertices
in its sliding window before clustering them, and parks motif-label
endpoints of non-motif edges for one window turnover) wait in a pending
buffer and surface via :meth:`RoutingIndex.flush_pending` once the
assignment lands —
so the visible subgraph only ever contains fully-placed edges, which is
exactly the set the offline executor can score.

Everything is keyed by the ids of ``state.interner``; vertex objects and
label strings survive only at the boundary.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.graph.interning import LabelInterner
from repro.graph.labelled_graph import LabelledGraph, Vertex
from repro.graph.stream import EdgeEvent
from repro.partitioning.state import UNASSIGNED, PartitionState


def _insort_new(row: List[int], vid: int) -> bool:
    """Insert ``vid`` into the sorted ``row`` unless it is there already;
    ``False`` when it was (a duplicate edge)."""
    i = bisect_left(row, vid)
    if i != len(row) and row[i] == vid:
        return False
    row.insert(i, vid)
    return True


def cold_rows(
    target: "RoutingIndex", graph: LabelledGraph
) -> Iterator[Tuple[int, int, int, List[int]]]:
    """The one id-space pass behind every cold build:
    :meth:`RoutingIndex.from_state`, the engine's
    :meth:`ShardStores.beside` and a live cluster's boot snapshot
    (:func:`repro.runtime.live.boot_snapshot`).

    Per *placed* vertex, in ``graph.vertices()`` order, yields ``(vid,
    label_id, partition, nbrs)``: the ids of its placed neighbours in the
    graph's own neighbour order, first insertion first (the caller sorts
    what it keeps).  On the way it fills everything :class:`RoutingIndex`
    holds on ``target`` — ``_label_of`` and the label ids, each
    partition's ``_by_label``, ``_pending`` (edges with an unplaced
    endpoint, in ``graph.edges()`` order) and, once exhausted, the member
    and edge counters.  No edge key is built: the graph holds each edge
    once, so the visible edges number half the placed neighbour ends.
    """
    state = target.state
    partition_of = state.assignment_vector
    id_map = state.interner.id_map
    known = len(partition_of)
    placed: Dict[Vertex, int] = {}
    for v in graph.vertices():
        vid = id_map.get(v)
        if vid is not None and vid < known and partition_of[vid] != UNASSIGNED:
            placed[v] = vid
    id_of = placed.get
    label = graph.label
    complete = len(placed) == graph.num_vertices
    if not complete:
        target._pending.extend(
            EdgeEvent(u, label(u), v, label(v))
            for u, v in graph.edges()
            if u not in placed or v not in placed
        )
    intern = target.labels.intern
    label_of = target._label_of
    by_label = [store._by_label for store in target.stores]
    ends = cut_ends = 0
    for u in graph.vertices():
        uid = id_of(u)
        nbrs = list(map(id_of, graph.neighbors(u)))
        if not complete:
            if uid is None:
                continue
            nbrs = [wid for wid in nbrs if wid is not None]
        label_id = label_of[uid] = intern(label(u))
        partition = partition_of[uid]
        by_label[partition].setdefault(label_id, []).append(uid)
        ends += len(nbrs)
        for wid in nbrs:
            if partition_of[wid] != partition:
                cut_ends += 1
        yield uid, label_id, partition, nbrs
    for store in target.stores:
        for members in store._by_label.values():
            members.sort()
            store.num_members += len(members)
    target.num_edges = ends // 2
    target.num_border_edges = cut_ends // 2


class _PartitionIndex:
    """One partition's *membership* view: labels and counts, no adjacency.

    Enough surface (``candidate_count`` / ``candidates`` / ``num_members``)
    for every :mod:`repro.serving.router` policy and for root-candidate
    scans, at a fraction of the memory: on a live driver the adjacency
    lives only on the shard that owns the partition.
    """

    __slots__ = ("partition", "_by_label", "num_members")

    def __init__(self, partition: int) -> None:
        self.partition = partition
        #: label id → sorted member ids carrying that label.
        self._by_label: Dict[int, List[int]] = {}
        self.num_members = 0

    def add_member(self, label_id: int, vid: int) -> None:
        insort(self._by_label.setdefault(label_id, []), vid)
        self.num_members += 1

    def candidates(self, label_id: int) -> List[int]:
        """Sorted member ids labelled ``label_id``.  Do not mutate."""
        return self._by_label.get(label_id, [])

    def candidate_count(self, label_id: int) -> int:
        return len(self._by_label.get(label_id, ()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} p={self.partition} members={self.num_members}>"


class RoutingIndex:
    """The admission and routing index both serving back ends stand on.

    Holds exactly what routing and request admission need — vertex → label
    id, per-partition label indexes and the pending buffer — and no
    adjacency, hence no edge set: the adjacency lives in the
    :class:`ShardStores` of whichever server owns each partition.  Every
    routing policy and the traffic driver therefore see one surface
    (``k``, ``stores``, ``candidate_counts``, ``candidates``,
    ``all_candidates``), and there is one admission rule (both endpoints
    placed; duplicates are dropped before the index, by the front end): a
    live cluster and a single-process engine fed the same stream admit the
    identical edge sequence — the bedrock of the equivalence suites.
    """

    __slots__ = (
        "state",
        "labels",
        "stores",
        "_label_of",
        "_partition_of",
        "_pending",
        "_new_vertices",
        "num_edges",
        "num_border_edges",
    )

    def __init__(self, state: PartitionState) -> None:
        self.state = state
        #: Label ↔ id bijection shared with the front end's compiled plans.
        self.labels = LabelInterner()
        self.stores = [_PartitionIndex(p) for p in range(state.k)]
        #: vertex id → label id, for every stored vertex.
        self._label_of: Dict[int, int] = {}
        #: vertex id → partition: the state's live assignment vector.
        self._partition_of = state.assignment_vector
        #: events whose endpoint was unassigned on arrival, in arrival order.
        self._pending: List[EdgeEvent] = []
        #: (vid, label_id, partition) rows stored since the last take — each
        #: front end turns these into EdgeUpdate vertex rows every round.
        self._new_vertices: List[Tuple[int, int, int]] = []
        self.num_edges = 0
        self.num_border_edges = 0

    @classmethod
    def from_state(cls, graph: LabelledGraph, state: PartitionState) -> "RoutingIndex":
        """Bulk-build the index for every placed vertex/edge of ``graph``.

        Edges with an unplaced endpoint go to the pending buffer (none, in
        the common fully-partitioned case).  Field for field the result of
        replaying :meth:`ingest_edge` over ``graph.edges()``.
        """
        index = cls(state)
        index._new_vertices.extend(row[:3] for row in cold_rows(index, graph))
        return index

    # ------------------------------------------------------------------
    # Construction / streaming
    # ------------------------------------------------------------------
    def _add_member(self, vid: int, label: str) -> None:
        if vid in self._label_of:
            return
        lid = self.labels.intern(label)
        self._label_of[vid] = lid
        partition = self.state.partition_of_id(vid)
        self.stores[partition].add_member(lid, vid)
        self._new_vertices.append((vid, lid, partition))

    def ingest_edge(self, event: EdgeEvent) -> Optional[Tuple[int, int]]:
        """Admit one streamed edge if both endpoints are placed.

        Each edge once; the front end dedups.  :meth:`ServingFrontEnd.ingest
        <repro.runtime.frontend.ServingFrontEnd.ingest>` forwards only the
        events its graph reports new, so this index keeps no edge set.
        Returns the visible ``(uid, vid)`` id pair when the edge entered the
        index, ``None`` when it parked in the pending buffer (unknown or
        unassigned endpoint).
        """
        id_of = self.state.interner.id_of
        uid, vid = id_of(event.u), id_of(event.v)
        if (
            uid is None
            or vid is None
            or self.state.partition_of_id(uid) == UNASSIGNED
            or self.state.partition_of_id(vid) == UNASSIGNED
        ):
            self._pending.append(event)
            return None
        self._add_member(uid, event.u_label)
        self._add_member(vid, event.v_label)
        self.num_edges += 1
        if self._partition_of[uid] != self._partition_of[vid]:
            self.num_border_edges += 1
        return (uid, vid)

    def flush_pending(self) -> List[Tuple[int, int]]:
        """Retry every parked edge; returns the id pairs that became visible.

        Call after each ingest round (and after ``finalize``): a Loom
        cluster assignment, or a parked vertex aging out, can retroactively
        place the endpoints of edges that streamed earlier.
        """
        parked, self._pending = self._pending, []
        visible: List[Tuple[int, int]] = []
        for event in parked:
            pair = self.ingest_edge(event)
            if pair is not None:
                visible.append(pair)
        return visible

    def take_new_vertices(self) -> List[Tuple[int, int, int]]:
        """Drain the ``(vid, label_id, partition)`` rows stored since the
        last call — one EdgeUpdate round's worth of vertex announcements."""
        rows, self._new_vertices = self._new_vertices, []
        return rows

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # The routing / admission surface
    # ------------------------------------------------------------------
    def label_id_of(self, vid: int) -> int:
        return self._label_of[vid]

    def candidates(self, partition: int, label_id: int) -> List[int]:
        return self.stores[partition].candidates(label_id)

    def candidate_counts(self, label_id: int) -> List[int]:
        """Per-partition root-candidate counts (the routers' main signal)."""
        return [store.candidate_count(label_id) for store in self.stores]

    def all_candidates(self, label_id: int) -> List[int]:
        """Every stored id carrying ``label_id``, across partitions, sorted."""
        out: List[int] = []
        for store in self.stores:
            out.extend(store.candidates(label_id))
        out.sort()
        return out

    @property
    def k(self) -> int:
        return self.state.k

    @property
    def num_vertices(self) -> int:
        return len(self._label_of)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} k={self.k} |V|={self.num_vertices} "
            f"|E|={self.num_edges} border={self.num_border_edges} "
            f"pending={self.num_pending}>"
        )


class ShardStores:
    """One shard server's slice of the serving data: the partitions whose
    index ``p % num_shards == shard_id``, with full member adjacency plus
    **ghost metadata** (label and partition) for every remote vertex seen
    on a border edge.

    Booted from the driver's cold snapshot (:meth:`from_rows`) — or, for
    the in-process engine's one shard, filled beside its routing index
    (:meth:`beside`) — then grown by EdgeUpdate wire rows; the shard never
    touches the interner or the graph.  The invariants the distributed
    executor leans on:

    * a *member*'s adjacency is complete w.r.t. the visible subgraph (the
      driver sends every visible edge incident to an owned partition), so
      ``has_edge_local`` answers definitively whenever either endpoint is
      a member — by bisecting that member's list — and returns ``None``
      only for remote–remote pairs;
    * every vertex the executor can name (a member's neighbour) has label
      and partition recorded — ghost metadata arrived in the snapshot or on
      the edge row that made it adjacent;
    * adjacency lists are sorted (booted sorted, then insort-maintained),
      so candidate iteration order is the same for every shard count, bit
      for bit, and membership — of a probe or of a duplicate row — is one
      bisection.  These two facts replace an edge-key set: each edge is
      held once per member endpoint.
    """

    __slots__ = (
        "shard_id",
        "num_shards",
        "k",
        "_adj",
        "_label_of",
        "_partition_of",
        "num_edges",
        "num_border_edges",
    )

    def __init__(self, shard_id: int, num_shards: int, k: int) -> None:
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.k = k
        #: member id → sorted ids of all its visible neighbours.
        self._adj: Dict[int, List[int]] = {}
        #: vid → label id, members *and* ghosts.
        self._label_of: Dict[int, int] = {}
        #: vid → partition, members *and* ghosts (on the engine's slice,
        #: the state's assignment vector, indexed by vid).
        self._partition_of: Union[Dict[int, int], List[int]] = {}
        self.num_edges = 0
        self.num_border_edges = 0

    @classmethod
    def from_rows(
        cls,
        shard_id: int,
        num_shards: int,
        k: int,
        members: Sequence[Tuple[int, int, int, List[int]]],
        ghosts: Sequence[Tuple[int, int, int]],
    ) -> "ShardStores":
        """Bulk-build a shard's slice from a cold snapshot.

        ``members`` holds ``(vid, label_id, partition, nbrs)`` per placed
        vertex of an owned partition, ``nbrs`` the sorted ids of its
        visible neighbours — adopted as the adjacency, not copied;
        ``ghosts`` holds ``(vid, label_id, partition)`` per off-shard
        neighbour.  Field for field what :meth:`add_vertex` and
        :meth:`apply_edge` build from the same graph sent as wire rows.
        """
        stores = cls(shard_id, num_shards, k)
        adj, label_of, partition_of = stores._adj, stores._label_of, stores._partition_of
        for vid, label_id, partition, nbrs in members:
            adj[vid] = nbrs
            label_of[vid] = label_id
            partition_of[vid] = partition
        for vid, label_id, partition in ghosts:
            label_of[vid] = label_id
            partition_of[vid] = partition
        edges = border = 0
        for vid, _label_id, partition, nbrs in members:
            for wid in nbrs:
                if wid < vid and wid in adj:
                    continue  # a member–member edge, counted from its lower end
                edges += 1
                if partition_of[wid] != partition:
                    border += 1
        stores.num_edges = edges
        stores.num_border_edges = border
        return stores

    @classmethod
    def beside(cls, index: RoutingIndex, graph: LabelledGraph) -> "ShardStores":
        """Fill an empty ``index`` and the one-shard slice beside it (shard
        0 of 1: it owns every partition) in one cold pass over ``graph``.

        The slice keeps only the adjacency of its own: it shares the
        index's label map and the state's assignment vector instead of
        copying them, so the index's admissions are its vertex metadata.
        Field for field what :meth:`from_rows` builds from a one-shard
        :func:`~repro.runtime.live.boot_snapshot`, but for those two maps.
        """
        stores = cls(0, 1, index.k)
        stores._label_of = index._label_of
        stores._partition_of = index.state.assignment_vector
        adj = stores._adj
        for vid, _label_id, _partition, nbrs in cold_rows(index, graph):
            nbrs.sort()
            adj[vid] = nbrs
        stores.num_edges = index.num_edges
        stores.num_border_edges = index.num_border_edges
        return stores

    def owns_partition(self, partition: int) -> bool:
        return partition % self.num_shards == self.shard_id

    def _register(self, vid: int, label_id: int, partition: int) -> None:
        """Record a vertex's metadata unless known; an owned vertex is (or
        becomes, if it was a ghost on an earlier border edge) a member."""
        if vid not in self._label_of:
            self._label_of[vid] = label_id
            self._partition_of[vid] = partition
        if vid not in self._adj and self.owns_partition(partition):
            self._adj[vid] = []

    def add_vertex(self, vid: int, label_id: int, partition: int) -> None:
        """Apply one EdgeUpdate vertex row (always an owned vertex)."""
        self._register(vid, label_id, partition)

    def apply_edge(
        self,
        uid: int,
        u_label: int,
        u_part: int,
        vid: int,
        v_label: int,
        v_part: int,
    ) -> Optional[Tuple[int, int]]:
        """Apply one EdgeUpdate edge row; at least one endpoint is owned.

        Returns the ``(uid, vid)`` pair when the edge was new (the cache
        invalidation seeds for this round), ``None`` on duplicates — found
        by bisecting a member endpoint's sorted list.
        """
        self._register(uid, u_label, u_part)
        self._register(vid, v_label, v_part)
        u_row, v_row = self._adj.get(uid), self._adj.get(vid)
        if u_row is not None:
            if not _insort_new(u_row, vid):
                return None
            if v_row is not None:
                insort(v_row, uid)
        elif not _insort_new(v_row, uid):
            return None
        self.num_edges += 1
        if u_part != v_part:
            self.num_border_edges += 1
        return (uid, vid)

    # -- the executor's view surface ------------------------------------
    @property
    def label_of(self) -> Dict[int, int]:
        return self._label_of

    def partition_of(self, vid: int) -> int:
        return self._partition_of[vid]

    def has_edge_local(self, uid: int, vid: int) -> Optional[bool]:
        """Definitive membership test when either endpoint is a member —
        one bisection of that member's sorted list; ``None`` when both are
        remote (only their owners can decide)."""
        row = self._adj.get(uid)
        if row is None:
            row = self._adj.get(vid)
            if row is None:
                return None
            vid = uid
        i = bisect_left(row, vid)
        return i != len(row) and row[i] == vid

    def bfs_forward(
        self,
        seeds: Iterable[Tuple[int, int]],
        max_depth: int,
        settled: Optional[Dict[int, int]] = None,
    ) -> Tuple[Dict[int, int], List[Tuple[int, int]]]:
        """Dist-bucketed multi-source BFS over *member* adjacency.

        ``seeds`` are ``(vid, dist)`` pairs — new-edge endpoints at 0, or
        distances forwarded from other shards.  Returns the ``vid → dist``
        entries settled (or improved) *this wave* plus the forward list:
        ghosts first reached at ``0 < dist <= max_depth``, whose owning
        shard must continue the wave.  ``settled`` is the ingest round's
        accumulated map, threaded through successive waves of the same
        round so a vertex already covered at an equal-or-smaller distance
        neither re-expands nor re-forwards — that bound, with distances
        strictly increasing along forward chains, is what terminates the
        cross-shard wave.  Seed order is normalised (sorted, min dist per
        vid) so the settled map is bit-stable.
        """
        if settled is None:
            settled = {}
        buckets: List[List[int]] = [[] for _ in range(max_depth + 1)]
        best: Dict[int, int] = {}
        for vid, d in seeds:
            if d <= max_depth and (vid not in best or d < best[vid]):
                best[vid] = d
        for vid in sorted(best):
            buckets[best[vid]].append(vid)
        wave: Dict[int, int] = {}
        forwards: List[Tuple[int, int]] = []
        for d in range(max_depth + 1):
            for vid in buckets[d]:
                if vid in settled and settled[vid] <= d:
                    continue
                settled[vid] = d
                wave[vid] = d
                member = vid in self._adj
                if not member and d > 0:
                    forwards.append((vid, d))
                if member and d < max_depth:
                    bucket = buckets[d + 1]
                    for w in self._adj[vid]:
                        if w not in settled or settled[w] > d + 1:
                            bucket.append(w)
        return wave, forwards

    @property
    def num_members(self) -> int:
        return len(self._adj)

    @property
    def num_ghosts(self) -> int:
        """Off-shard vertices with metadata here: named, never members."""
        return len(self._label_of) - len(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardStores shard={self.shard_id}/{self.num_shards} "
            f"members={self.num_members} ghosts={self.num_ghosts} "
            f"|E|={self.num_edges}>"
        )
