"""The sliding window ``Ptemp`` over the graph stream (paper Sec. 3).

Loom buffers the most recent ``t`` motif-candidate edges.  The window is
simultaneously

* a FIFO: when full, the oldest edge is evicted and allocated, and
* a temporary partition: its edges form a labelled graph whose connected
  sub-graphs the matcher compares against motifs.

Edges that cannot match any single-edge motif never enter the window (Loom
places their endpoints itself), so they do not displace older edges —
exactly the behaviour described at the start of Sec. 4.

The window runs entirely on interned integer ids: edges are keyed by
packed id pairs (:func:`~repro.graph.interning.pack_edge`) and — since the
motif-plan compile — the id → label map holds **label ids** from a shared
:class:`~repro.graph.interning.LabelInterner`, so label comparisons and the
matcher's delta probes are integer operations.  Per vertex the window keeps
only its label and how many buffered edges touch it (zero means it has left
``Ptemp``): nobody reads a window vertex's neighbours, so none are kept.
Vertex objects and label strings appear only inside the buffered
:class:`~repro.graph.stream.EdgeEvent`\\ s (the allocator needs them back at
the public boundary), in error messages, and in :meth:`to_labelled_graph`,
the materialised view used by snapshot queries and tests.  Nothing in here
orders or hashes vertex *objects*, which is what makes the matcher's
behaviour independent of ``PYTHONHASHSEED`` and of whether vertices define
a value-based ``repr``.

Cluster allocation can remove *multiple* edges at once (a motif match
cluster leaves together), so removal by edge key is O(1): the FIFO is an
insertion-ordered dict rather than a deque.

A re-arrival of a buffered edge is ignored (it adds nothing to match),
*unless* its labels contradict the buffered event — that is a corrupt
stream, and it raises :class:`LabelConflictError` instead of being dropped
silently.  The same check rejects an edge that relabels a vertex already
held by the window, mirroring :class:`~repro.graph.labelled_graph.LabelledGraph`'s
immutable-label rule.  Caller-supplied vertex ids are bounds-checked
against the interner: an id the interner never handed out would silently
corrupt the id → label map, so it raises ``ValueError`` naming the offending
id instead.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.graph.interning import LabelInterner, VertexInterner, pack_edge, unpack_edge
from repro.graph.labelled_graph import LabelledGraph, Vertex
from repro.graph.stream import EdgeEvent


class LabelConflictError(ValueError):
    """An arriving edge's labels contradict what the window already holds."""


class SlidingWindow:
    """A fixed-capacity FIFO of edge events plus their graph (``Ptemp``)."""

    __slots__ = ("capacity", "interner", "labels", "_events", "_degree", "_labels")

    def __init__(
        self,
        capacity: int,
        interner: Optional[VertexInterner] = None,
        labels: Optional[LabelInterner] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("window capacity must be at least 1")
        self.capacity = capacity
        #: Vertex ↔ id bijection.  The matcher shares the partition state's
        #: interner here so window ids agree with assignment-vector ids.
        self.interner = interner if interner is not None else VertexInterner()
        #: Label ↔ id bijection.  The matcher passes its plan's interner so
        #: window label ids agree with the compiled plan's; a standalone
        #: window owns a private one.
        self.labels = labels if labels is not None else LabelInterner()
        self._events: Dict[int, EdgeEvent] = {}  # ekey -> event, insertion-ordered
        # Both keyed by exactly the vertex ids some buffered edge touches.
        self._degree: Dict[int, int] = {}  # vertex id -> buffered edges at it
        self._labels: Dict[int, int] = {}  # vertex id -> label id

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, event: EdgeEvent) -> Optional[int]:
        """Buffer ``event``, interning its endpoints and labels here.

        Convenience wrapper over :meth:`add_ids` for callers without ids in
        hand (tests, standalone matchers).  Returns the packed edge key if
        the edge was newly buffered, ``None`` for an exact duplicate.
        """
        uid = self.interner.intern(event.u)
        vid = self.interner.intern(event.v)
        return self.add_ids(event, uid, vid, pack_edge(uid, vid))

    def add_ids(
        self,
        event: EdgeEvent,
        uid: int,
        vid: int,
        ekey: int,
        lu: Optional[int] = None,
        lv: Optional[int] = None,
    ) -> Optional[int]:
        """Buffer ``event`` under pre-interned ids (the matcher's fast path).

        ``lu``/``lv`` are the endpoints' label ids in :attr:`labels`
        (interned from the event when omitted).  Returns ``ekey`` if newly
        buffered, ``None`` for a duplicate edge.  Raises ``ValueError``
        for self-loops (the paper's model is simple graphs, matching
        :class:`LabelledGraph`) and for vertex ids outside the interner's
        range (a foreign id would silently corrupt the id → label map),
        and :class:`LabelConflictError` when the event's labels disagree
        with labels already held for either endpoint — including the
        previously-silent case of a duplicate edge arriving relabelled.
        """
        if uid == vid:
            raise ValueError(
                f"self-loop on vertex {event.u!r} not permitted in a simple graph"
            )
        n = len(self.interner)
        if not 0 <= uid < n:
            raise ValueError(
                f"vertex id {uid} is not from this window's interner "
                f"(valid range [0, {n}))"
            )
        if not 0 <= vid < n:
            raise ValueError(
                f"vertex id {vid} is not from this window's interner "
                f"(valid range [0, {n}))"
            )
        if lu is None:
            lu = self.labels.intern(event.u_label)
        if lv is None:
            lv = self.labels.intern(event.v_label)
        labels = self._labels
        held_u = labels.get(uid)
        held_v = labels.get(vid)
        if (held_u is not None and held_u != lu) or (
            held_v is not None and held_v != lv
        ):
            label = self.labels.label
            raise LabelConflictError(
                f"edge {event.u!r}-{event.v!r} arrived with labels "
                f"({event.u_label!r}, {event.v_label!r}) but the window holds "
                f"({label(held_u) if held_u is not None else None!r}, "
                f"{label(held_v) if held_v is not None else None!r}); labels "
                "are immutable while a vertex is in Ptemp"
            )
        if ekey in self._events:
            return None
        self._events[ekey] = event
        if held_u is None:
            labels[uid] = lu
        if held_v is None:
            labels[vid] = lv
        degree = self._degree
        degree[uid] = degree.get(uid, 0) + 1
        degree[vid] = degree.get(vid, 0) + 1
        return ekey

    def remove_ekeys(self, ekeys: Set[int]) -> List[EdgeEvent]:
        """Remove edges (a match cluster) from the window by packed key.

        Vertices left isolated are dropped from the window graph — they have
        left ``Ptemp`` (their permanent placement is the allocator's job).
        Returns the removed events in sorted-key order (canonical — callers
        may receive ``ekeys`` as a set); unknown keys are ignored.
        """
        removed: List[EdgeEvent] = []
        degree = self._degree
        labels = self._labels
        for ekey in sorted(ekeys):
            event = self._events.pop(ekey, None)
            if event is None:
                continue
            removed.append(event)
            for vid in unpack_edge(ekey):
                left = degree[vid] - 1
                if left:
                    degree[vid] = left
                else:
                    del degree[vid]
                    del labels[vid]
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def oldest(self) -> EdgeEvent:
        """The event next in line for eviction (does not remove it)."""
        if not self._events:
            raise LookupError("window is empty")
        return next(iter(self._events.values()))

    def oldest_item(self) -> Tuple[int, EdgeEvent]:
        """``(ekey, event)`` of the eviction candidate (does not remove)."""
        if not self._events:
            raise LookupError("window is empty")
        return next(iter(self._events.items()))

    def is_overflowing(self) -> bool:
        """True when the window holds more than ``capacity`` edges, i.e.
        the newest arrival must displace the oldest (Sec. 4)."""
        return len(self._events) > self.capacity

    def has_vertex_id(self, vid: int) -> bool:
        """O(1): does any window edge touch id ``vid``?"""
        return vid in self._labels

    def degree_id(self, vid: int) -> int:
        return self._degree.get(vid, 0)

    def label_id(self, vid: int) -> int:
        """The *label id* of a window vertex (an id in :attr:`labels`);
        raises ``KeyError`` if the vertex is not windowed.  The matcher's
        delta probes consume this directly; use :meth:`label_of` for the
        string."""
        return self._labels[vid]

    def label_of(self, vid: int) -> str:
        """The label string of a window vertex (boundary twin of
        :meth:`label_id`)."""
        return self.labels.label(self._labels[vid])

    def degree_in_window(self, vertex: Vertex) -> int:
        """Vertex-keyed :meth:`degree_id` for boundary callers."""
        vid = self.interner.id_of(vertex)
        return self.degree_id(vid) if vid is not None else 0

    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    def __len__(self) -> int:
        return len(self._events)

    def __contains__(self, ekey: int) -> bool:
        return ekey in self._events

    def edges(self) -> Iterator[int]:
        """All buffered packed edge keys, oldest first."""
        return iter(self._events)

    def events(self) -> Iterator[EdgeEvent]:
        return iter(self._events.values())

    def event_for(self, ekey: int) -> Optional[EdgeEvent]:
        return self._events.get(ekey)

    def to_labelled_graph(self, name: str = "Ptemp") -> LabelledGraph:
        """Materialise the window contents as a :class:`LabelledGraph`.

        O(window) per call — for snapshot queries, tests and debugging, not
        for per-edge hot paths (those use the ``*_id`` lookups above).
        """
        g = LabelledGraph(name)
        for event in self._events.values():
            g.add_edge(event.u, event.v, event.u_label, event.v_label)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SlidingWindow {len(self._events)}/{self.capacity} edges>"
