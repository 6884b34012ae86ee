"""Stream motif matching (paper Sec. 3, Alg. 2), on a compiled MotifPlan.

As each edge ``e = (v1, v2)`` arrives, the matcher maintains ``matchList`` —
a map from window vertices to the motif-matching sub-graphs containing them
— using three discovery steps:

1. **Single-edge gate**: if ``e`` matches no single-edge motif it can never
   join any motif match; the caller places it immediately and it never
   enters the window.
2. **Extension** (Alg. 2 lines 3–8): for every existing match ``m`` touching
   ``v1`` or ``v2``, if the motif state of ``m`` has a motif successor whose
   factor delta equals ``factors(e, m)``, then ``m + e`` matches that state.
3. **Pair join** (Alg. 2 lines 11–18): a match containing ``e`` and an
   existing match on the other endpoint may merge into a larger motif; the
   smaller side's edges are "grown" into the larger one by one, each step
   validated through the plan, until exhausted.

Every connected sub-graph of a motif is itself a motif (support is monotone,
Sec. 3), so each match in the window was discoverable when its last edge
arrived: extension finds ``C_u + e`` for the component of ``M − e``
containing ``v1``, and one pair join merges in the component at ``v2``.

The matcher is the measured hot path of the whole reproduction (Table 2 —
ingestion cost is matcher-dominated), so it consumes the **compiled**
:class:`~repro.core.plan.MotifPlan`, never the object trie: vertices are
interner ids, edges are packed id pairs
(:func:`~repro.graph.interning.pack_edge`), labels are
:class:`~repro.graph.interning.LabelInterner` ids shared between the plan
and the window's id → label map, motifs are dense plan state ids carried in
:class:`Match`, and both of Alg. 2's lookups are single int-keyed probes
against tables the plan pre-computed from the TPSTry++.  Per-state facts
(support, extensibility) are flat array reads.

The matchList itself runs on **dense match ids**: every registered match
gets a small integer handle into an arena
(:class:`MatchList`), the per-vertex index holds *lists of ints* rather than
sets of :class:`Match` objects, and duplicate detection is one dict probe
keyed by the match's sort key, which ends in its canonical ``(edges,
state)`` pair (the matches containing an edge are read off its endpoints'
buckets at eviction).
That keeps Python-level ``__hash__``/``__eq__`` dispatch — which dominated
the object-keyed matchList — entirely off the per-edge path: every hot
container operation hashes machine ints or flat int tuples in C.  A match's
edge set is a **sorted tuple** of packed keys (canonical, so the sort key
needs no per-use sorting), and every ordering — match sort keys,
``_grow``'s edge order — is a plain integer comparison; ``repr()``-string
orderings are banned on this path (they were both slow and, for
address-based default reprs, a cross-run determinism bug).

Batch arrival (:meth:`StreamMatcher.offer_batch`) is the same per-edge work
with the hot names bound once: one root-memo probe per edge, then the
matching core :meth:`StreamMatcher._absorb` that :meth:`offer` also runs, so
a batch run and a per-event run are bit-identical by construction (the
batch ≡ per-event suites under ``tests/`` pin it).  There is no vectorised
path: the gate is under 2% of the matcher's time, and a numpy batch gate
measured no faster while costing every process the numpy import
(ARCHITECTURE.md explains).

Vertex objects are translated back only at the public boundary
(:meth:`StreamMatcher.resolve_vertices` / :meth:`StreamMatcher.resolve_edges`);
trie nodes are reachable for debugging through ``plan.node_of(state)``.

A per-vertex match cap (``max_matches_per_vertex``) bounds the combinatorial
worst case on dense, label-homogeneous hubs.  The default of 64 is *not*
generous: on the reference graph ``capped_registrations / matches_created``
is 0.33–0.35 (the e2e benchmark's ``core.matching.capped_share``), so every
quality number this repo reports is Loom under that cap.  Whether the cap
costs quality is ROADMAP item 3b.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.core.motifs import MotifIndex
from repro.core.plan import MotifPlan
from repro.core.window import LabelConflictError, SlidingWindow
from repro.graph.interning import EDGE_MASK, EDGE_SHIFT, VertexInterner, pack_edge
from repro.graph.labelled_graph import Vertex
from repro.graph.stream import EdgeEvent

EdgeTuple = Tuple[int, ...]
"""A match's edge set: packed edge keys (see
:func:`~repro.graph.interning.pack_edge`), sorted ascending (canonical)."""

SortKey = Tuple[float, int, EdgeTuple, int]
"""A match's ``(-support, |E|, edges, state)``: its eviction/auction order
and its key in the matchList's id table."""

_NO_MATCHES: Set["Match"] = set()
"""Shared empty result for matchList misses — the lookups run per candidate
edge, and allocating a fresh ``set()`` default per miss was measurable."""

class Match:
    """A sub-graph of window edges matching a motif (an entry of matchList).

    ``edges`` holds packed edge keys as a **sorted tuple** (canonical — two
    matches are equal iff their states and edge tuples are) and ``state`` a
    dense :class:`~repro.core.plan.MotifPlan` state id; all integers end to
    end.  Any iterable of packed keys is accepted and canonicalised.

    Matches are the bulk of the window's resident state, so each fact is
    held once (ARCHITECTURE.md, "Resident state").  Besides ``edges`` and
    ``state`` a match stores two tuples:

    * ``_ends``, the endpoint ids of its edges in the order it grew — two
      per edge, so an id occurs once per edge at it.  ``degree_of`` is one
      C-level ``count`` over it and ``vertices`` its distinct ids in
      first-seen order; no per-match degree map is kept.
    * ``_sort_key``, the eviction/auction order ``(-support, |E|, edges,
      state)``, whose first field is the plan's one float per state
      (``plan.neg_support``); ``support`` is read back from it.  The
      matchList keys its id table by this same tuple: support is a
      function of the state, so two keys are equal iff their
      ``(edges, state)`` pairs are.

    The hash is computed from ``(edges, state)`` on demand — the
    matchList's indexes key the sort key, not the match."""

    __slots__ = ("edges", "state", "_ends", "_sort_key")

    def __init__(self, edges: Iterable[int], state: int, support: float) -> None:
        edges = tuple(sorted(edges))
        self.edges = edges
        self.state = state
        # The matcher grows its matches edge by edge and stores the
        # endpoints in that order; a match built here has only its sorted
        # edges to go by.
        self._ends = tuple(vid for ekey in edges for vid in (ekey >> EDGE_SHIFT, ekey & EDGE_MASK))
        # Support-descending order with deterministic tie-breaks (Sec. 4):
        # smaller matches first among equals, then by the canonical edge
        # tuple, then the state — integer comparisons, stable across runs
        # and hash seeds.
        self._sort_key: SortKey = (-support, len(edges), edges, state)

    @property
    def support(self) -> float:
        """The state's support (negation is exact, so this is the plan's
        value bit for bit)."""
        return -self._sort_key[0]

    @property
    def vertices(self) -> Dict[int, None]:
        """The match's distinct vertex ids, first-seen order, as a fresh
        dict's keys (iterate it or test membership)."""
        return dict.fromkeys(self._ends)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree_of(self, vid: int) -> int:
        """Degree of id ``vid`` *within this match* (0 if absent) — the
        quantity the incremental factor computation needs (Sec. 2.1)."""
        return self._ends.count(vid)

    def __hash__(self) -> int:
        return hash((self.edges, self.state))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Match)
            and self.state == other.state
            and self.edges == other.edges
        )

    def sort_key(self) -> SortKey:
        """The eviction/auction sort key (see ``_sort_key`` above)."""
        return self._sort_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Match |E|={len(self.edges)} state=#{self.state} supp={self.support:.2f}>"


class MatchList:
    """The matchList map of Sec. 3, indexed by vertex id.

    Internally an **arena**: each live match owns a dense int id; the vertex
    index (Alg. 2's "matches connected to this edge") holds a list of those
    ids per vertex, in registration order and each id once, and duplicate
    detection is one dict probe keyed by the match's sort key.  Buckets
    are small (capped, about five ids at the benchmark's peak), and a
    list of five costs 120 B where a set costs 728 B.  Eviction's
    "matches containing this edge" is derived, not stored: such a match
    holds both endpoints, so it sits in both their buckets
    (:meth:`_mids_with_edge`).  Hot container operations therefore hash
    ints and int tuples in C — the matcher binds the id-level internals
    directly (in-package inner-loop binding, ARCHITECTURE.md).  The public
    API stays object-level: lookups return :class:`Match` sets, so boundary
    callers never see ids.  Ids of dropped matches are recycled through a
    free list, which bounds the arena at the live high-water mark on
    unbounded streams.

    Per live match the matchList holds the :class:`Match` (its edge tuple,
    endpoint tuple and shared-float sort key), one arena slot, one
    ``_keys`` slot and one ``_ids`` entry keyed by that same sort key, and
    one id in each of its vertices' buckets — nothing else.  The arena and
    the free list keep their high-water length once the window drains:
    the order ids are recycled in decides sort-key ties, so it is kept.
    """

    def __init__(self) -> None:
        self._arena: List[Optional[Match]] = []
        self._keys: List[Optional[SortKey]] = []
        self._ids: Dict[SortKey, int] = {}
        self._by_vertex: Dict[int, List[int]] = {}
        self._free: List[int] = []

    # -- id plumbing (shared with StreamMatcher's inlined register) -------
    def _alloc_mid(self) -> int:
        if self._free:
            return self._free.pop()
        mid = len(self._arena)
        self._arena.append(None)
        self._keys.append(None)
        return mid

    def _install(self, mid: int, match: Match) -> None:
        self._arena[mid] = match
        self._keys[mid] = key = match._sort_key
        self._ids[key] = mid

    def _evict_mid(self, mid: int) -> Match:
        """Remove one live match by id from the indexes; returns it."""
        match = self._arena[mid]
        assert match is not None
        del self._ids[match._sort_key]
        by_vertex = self._by_vertex
        # Each distinct vertex's bucket holds mid exactly once.
        for vid in match.vertices:
            bucket = by_vertex[vid]
            if len(bucket) == 1:
                del by_vertex[vid]
            else:
                bucket.remove(mid)
        self._arena[mid] = None
        self._keys[mid] = None
        self._free.append(mid)
        return match

    def _mids_with_edge(self, ekey: int) -> List[int]:
        """Ids of the live matches containing edge ``ekey``, in bucket
        order: a match holding the edge sits in both endpoints' buckets, so
        the shorter one filtered by edge membership is all of them.
        Buckets are capped, so this is one short scan per evicted edge,
        where an edge index cost two inserts and two removals per match."""
        at_u = self._by_vertex.get(ekey >> EDGE_SHIFT)
        at_v = self._by_vertex.get(ekey & EDGE_MASK)
        if not at_u or not at_v:
            return []
        if len(at_v) < len(at_u):
            at_u = at_v
        arena = self._arena
        return [mid for mid in at_u if ekey in arena[mid].edges]

    def _evict_edges(
        self, ekeys: Iterable[int], eviction: Optional[Eviction] = None
    ) -> List[Match]:
        """Remove every match containing any of ``ekeys``, in ascending id
        order (canonical: it fixes the free list, hence id recycling).
        Given the :class:`Eviction` the edges were auctioned from, the ids
        it found at its edge stand in for looking that edge up again."""
        if eviction is None or eviction.ekey not in ekeys:
            doomed: Set[int] = set().union(*map(self._mids_with_edge, ekeys))
        else:
            known = eviction.ekey
            mids_with_edge = self._mids_with_edge
            doomed = set(eviction.mids).union(
                *[mids_with_edge(ekey) for ekey in ekeys if ekey != known]
            )
        evict = self._evict_mid
        return [evict(mid) for mid in sorted(doomed)]

    # -- public object-level API ------------------------------------------
    def add(self, match: Match) -> bool:
        if match._sort_key in self._ids:
            return False
        mid = self._alloc_mid()
        self._install(mid, match)
        by_vertex = self._by_vertex
        for vid in match.vertices:
            bucket = by_vertex.get(vid)
            if bucket is None:
                by_vertex[vid] = [mid]
            else:
                bucket.append(mid)
        return True

    def discard(self, match: Match) -> None:
        mid = self._ids.get(match._sort_key)
        if mid is not None:
            self._evict_mid(mid)

    def matches_at(self, vid: int) -> Set[Match]:
        """The live match set at a vertex id (a fresh set; the shared empty
        set is returned for vertices with no matches)."""
        bucket = self._by_vertex.get(vid)
        if not bucket:
            return _NO_MATCHES
        arena = self._arena
        return {arena[mid] for mid in bucket}

    def matches_containing_edge(self, ekey: int) -> Set[Match]:
        """The live match set of an edge key (a fresh set)."""
        arena = self._arena
        return {arena[mid] for mid in self._mids_with_edge(ekey)}

    def drop_edges(self, ekeys: Iterable[int]) -> Set[Match]:
        """Remove every match containing any of ``ekeys``; returns them.

        Object-level twin of what :meth:`StreamMatcher.remove_cluster`
        runs once per window slide."""
        return set(self._evict_edges(ekeys))

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, match: Match) -> bool:
        return match._sort_key in self._ids

    def all_matches(self) -> Set[Match]:
        return {m for m in self._arena if m is not None}


@dataclass(slots=True)
class Eviction:
    """What leaves the window when it slides: the oldest edge and the
    support-sorted motif matches containing it (``Me`` of Sec. 4), with
    their matchList ids in the same order — handed back to
    :meth:`StreamMatcher.remove_cluster` so removal need not find them
    again."""

    event: EdgeEvent
    matches: List[Match]
    ekey: int
    mids: List[int]


@dataclass(slots=True)
class MatcherStats:
    """Counters for one :class:`StreamMatcher`, surfaced by
    ``partition_cli --stats`` and the bench harness.

    ``plan_states`` is static (the compiled automaton's size); everything
    else accumulates over the stream.  ``root_hits`` counts edges passing
    the single-edge gate, ``extension_probes`` counts successor-table
    lookups (extension + pair-join growth), ``leaf_gate_skips`` counts
    matches whose non-extensible (leaf-motif) state let the matcher skip
    the factor arithmetic entirely.  No counter depends on how the stream
    was cut into batches: a batch run and a per-event run of one stream
    agree on the whole dataclass.
    """

    plan_states: int = 0
    edges_offered: int = 0
    edges_windowed: int = 0
    edges_bypassed: int = 0
    matches_created: int = 0
    pair_joins: int = 0
    capped_registrations: int = 0
    label_conflicts: int = 0
    root_hits: int = 0
    extension_probes: int = 0
    leaf_gate_skips: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class StreamMatcher:
    """Incremental motif matching over a sliding window (Alg. 2).

    Constructed from a compiled :class:`~repro.core.plan.MotifPlan`; a
    :class:`~repro.core.motifs.MotifIndex` is accepted and compiled on the
    spot for convenience (tests).
    """

    def __init__(
        self,
        plan: Union[MotifPlan, MotifIndex],
        window_size: int,
        max_matches_per_vertex: int = 64,
        interner: Optional[VertexInterner] = None,
    ) -> None:
        if max_matches_per_vertex < 1:
            raise ValueError("max_matches_per_vertex must be positive")
        if isinstance(plan, MotifIndex):
            plan = plan.compile()
        self.plan = plan
        #: Vertex ↔ id bijection shared with the window.  Loom passes the
        #: partition state's interner so match ids index the assignment
        #: vector directly; a standalone matcher owns a private one.
        self.interner = interner if interner is not None else VertexInterner()
        #: The window shares the plan's label interner: window label ids
        #: are plan label ids, so delta probes need no translation.
        self.window = SlidingWindow(window_size, interner=self.interner, labels=plan.labels)
        self.matchlist = MatchList()
        self.max_matches_per_vertex = max_matches_per_vertex
        self.stats = MatcherStats(plan_states=plan.num_states)
        # MatchList internals, bound once (list/dict identities are
        # stable): registration runs several times per windowed edge, and
        # every bucket holds plain ints — no Match.__hash__ dispatch.
        ml = self.matchlist
        self._ml_arena = ml._arena
        self._ml_keys = ml._keys
        self._ml_ids = ml._ids
        self._ml_by_vertex = ml._by_vertex
        self._ml_free = ml._free
        # Plan tables, bound once: these probes run per candidate edge at
        # streaming rates (in-package inner-loop binding, ARCHITECTURE.md).
        self._root_entry = plan.root_entry
        self._root_memo = plan._root_memo
        self._neg_support = plan.neg_support
        self._extensible = plan.extensible
        self._successor_rows = plan.successor_rows
        self._delta_shift = plan._delta_shift
        self._delta_memo = plan._delta_memo
        self._delta_slow = plan.delta_id
        self._max_motif_edges = plan.max_motif_edges

    @property
    def index(self) -> MotifIndex:
        """The object-level motif index behind the compiled plan."""
        return self.plan.index

    # ------------------------------------------------------------------
    # Edge arrival
    # ------------------------------------------------------------------
    def offer(
        self, event: EdgeEvent, uid: Optional[int] = None, vid: Optional[int] = None
    ) -> bool:
        """Process one arriving edge.

        Returns ``True`` if the edge entered the window, ``False`` if it
        cannot match any single-edge motif (the caller must place it
        immediately — Sec. 3's early exit).  Callers that already interned
        the endpoints (Loom records adjacency first) pass ``uid``/``vid``
        to skip the repeat lookup; they must come from this matcher's
        interner.  Raises
        :class:`~repro.core.window.LabelConflictError` (counted in
        ``stats.label_conflicts``) when the event relabels a windowed
        vertex — including a duplicate edge re-arriving with new labels,
        which the object-keyed matcher used to drop without trace.
        """
        stats = self.stats
        stats.edges_offered += 1
        root, lu, lv = self._root_entry(event.u_label, event.v_label)
        if root < 0:
            stats.edges_bypassed += 1
            return False
        stats.root_hits += 1
        if uid is None or vid is None:
            intern = self.interner.intern
            uid = intern(event.u)
            vid = intern(event.v)
        self._absorb(event, uid, vid, root, lu, lv)
        return True

    def offer_batch(
        self,
        events: Iterable[EdgeEvent],
        on_overflow: Optional[Callable[[], None]] = None,
    ) -> int:
        """:meth:`offer` on each event in order, hot names bound once.

        The gate is one probe of the plan's root memo per edge (the plan's
        slow path on a miss, exactly as :meth:`offer` takes it) and an edge
        that passes runs :meth:`_absorb`, so window contents, the matchList
        and every counter equal a per-event run's.  Returns the number of
        edges that entered the window (a duplicate of a buffered edge
        passes the gate but does not enter).

        ``on_overflow`` is called once after each gate-passing edge that
        leaves the window over capacity — where a per-event driver would
        run its eviction; without one the window is left overflowing (the
        standalone-matcher behaviour of repeated :meth:`offer` calls).  A
        :class:`~repro.core.window.LabelConflictError` aborts the batch at
        the offending edge, counted then raised as in :meth:`offer`:
        earlier edges stay absorbed, later ones were never looked at.
        """
        stats = self.stats
        memo = self._root_memo
        slow = self._root_entry
        intern = self.interner.intern
        absorb = self._absorb
        window_events = self.window._events
        capacity = self.window.capacity
        entered = 0
        for event in events:
            stats.edges_offered += 1
            got = memo.get((event.u_label, event.v_label))
            if got is None:
                got = slow(event.u_label, event.v_label)
            root = got[0]
            if root < 0:
                stats.edges_bypassed += 1
                continue
            stats.root_hits += 1
            if absorb(event, intern(event.u), intern(event.v), root, got[1], got[2]):
                entered += 1
            if on_overflow is not None and len(window_events) > capacity:
                on_overflow()
        return entered

    def _absorb(
        self, event: EdgeEvent, uid: int, vid: int, root: int, lu: int, lv: int
    ) -> bool:
        """The per-edge matching core behind the gate: window the edge,
        then run extension and pair joins (Alg. 2).  Shared by
        :meth:`offer`, :meth:`offer_batch` and Loom's ingest loop — their
        bit-exactness is structural.  Returns ``False`` for a duplicate
        edge."""
        stats = self.stats
        ekey = pack_edge(uid, vid)
        try:
            if self.window.add_ids(event, uid, vid, ekey, lu, lv) is None:
                return False  # duplicate edge: already buffered, nothing new to match
        except LabelConflictError:
            stats.label_conflicts += 1
            raise
        stats.edges_windowed += 1

        # Read the pool *before* the base match is registered (the base
        # cannot extend itself).  Self-loops were rejected by the window
        # above, so uid != vid.
        by_vertex = self._ml_by_vertex
        keys = self._ml_keys
        arena = self._ml_arena
        bucket_u = by_vertex.get(uid)
        bucket_v = by_vertex.get(vid)
        if bucket_u:
            pool = {*bucket_u, *bucket_v} if bucket_v else bucket_u
        else:
            pool = bucket_v
        if not pool:
            existing: List[Match] = []
        elif len(pool) == 1:
            existing = [arena[next(iter(pool))]]
        else:
            existing = [arena[mid] for mid in sorted(pool, key=keys.__getitem__)]

        register = self._register
        # The single-edge match is never capped: eviction relies on every
        # window edge having at least one match (its allocation handle).
        base = register((ekey,), root, (uid, vid), mandatory=True)
        new_matches: List[Match] = [base] if base is not None else []

        # -- extension: add e to every connected existing match (lines 3-8),
        #    inlined — this loop runs per (windowed edge, touching match).
        #    ekey is newly windowed, so no existing match contains it.
        if existing:
            extensible = self._extensible
            delta_memo = self._delta_memo
            delta_slow = self._delta_slow
            successor_rows = self._successor_rows
            shift = self._delta_shift
            # Both endpoints are vertices of every extension, and their
            # buckets (the base match just created them if need be) only
            # grow during this loop.
            at_u = by_vertex[uid]
            at_v = by_vertex[vid]
            cap = self.max_matches_per_vertex
            leaf_skips = 0
            probes = 0
            capped = 0
            for m in existing:
                m_state = m.state
                if not extensible[m_state]:
                    leaf_skips += 1
                    continue  # leaf motif: no successor could absorb the edge
                ends = m._ends
                du = ends.count(uid)
                dv = ends.count(vid)
                delta = delta_memo.get((lu, lv, du, dv))
                if delta is None:
                    delta = delta_slow(lu, lv, du, dv)
                if delta < 0:
                    continue  # this factor triple keys no successor anywhere
                probes += 1
                children = successor_rows[(m_state << shift) | delta]
                if children is None:
                    continue
                if len(at_u) >= cap or len(at_v) >= cap:
                    # Every child would be registered only to be rolled
                    # back (ekey is new, so none can be a duplicate): a
                    # third of all registrations on the reference graph.
                    # Count them as _register would and build nothing.
                    capped += len(children)
                    continue
                extended_edges = m.edges + (ekey,)
                extended_ends = ends + (uid, vid)
                for child in children:
                    nm = register(extended_edges, child, extended_ends)
                    if nm is not None:
                        new_matches.append(nm)
            stats.leaf_gate_skips += leaf_skips
            stats.extension_probes += probes
            stats.capped_registrations += capped

        # -- pair joins (lines 11-18): merge a match containing e with a
        #    match on the other side.  Every motif match M ∋ e decomposes as
        #    (component at u) + e + (component at v); extension created
        #    C + e for every component C touching either endpoint, so
        #    joining each *extension product* with each pre-existing match
        #    is exhaustive.  The single-edge base match is excluded from
        #    the frontier: base + C is the same edge set as C + e — the
        #    same signature, hence the same plan state — so every base
        #    join replays an extension verbatim.  Joins only exist when
        #    some motif outgrows the largest match seen so far, so
        #    size-gate the quadratic loop.  The one-edge-remaining case
        #    dominates and is inlined (no recursion); the single-edge
        #    ``m_old`` sub-case reuses its edge tuple as the remainder key
        #    outright.
        if existing and new_matches:
            extensible = self._extensible
            max_edges = self._max_motif_edges
            labels = self.window._labels
            delta_memo = self._delta_memo
            delta_slow = self._delta_slow
            successor_rows = self._successor_rows
            shift = self._delta_shift
            frontier = [
                m
                for m in new_matches
                if 1 < len(m.edges) < max_edges and extensible[m.state]
            ]
            probes = 0
            joins = 0
            while frontier:
                produced: List[Match] = []
                for m_new in frontier:
                    n_new = len(m_new.edges)
                    m_new_edges = m_new.edges
                    m_new_ends = m_new._ends
                    state = m_new.state
                    tried: Set[EdgeTuple] = set()
                    for m_old in existing:
                        m_old_edges = m_old.edges
                        if len(m_old_edges) == 1:
                            # The remainder is m_old's own edge tuple (or
                            # empty): no difference to materialise.
                            if m_old_edges[0] in m_new_edges:
                                continue
                            if n_new + 1 > max_edges:
                                continue
                            remaining = m_old_edges
                        else:
                            remaining = tuple(
                                e for e in m_old_edges if e not in m_new_edges
                            )
                            if not remaining:
                                continue
                            if n_new + len(remaining) > max_edges:
                                continue
                        # Distinct m_old with equal remainders attempt the
                        # same (deterministic) growth; first one decides.
                        if remaining in tried:
                            continue
                        tried.add(remaining)
                        if len(remaining) == 1:
                            # Inlined single-step _grow: the added edge must
                            # be incident and cross a successor; the first
                            # successor wins, as in the recursive search.
                            e2 = remaining[0]
                            u = e2 >> EDGE_SHIFT
                            v = e2 & EDGE_MASK
                            du = m_new_ends.count(u)
                            dv = m_new_ends.count(v)
                            if not du and not dv:
                                continue
                            delta = delta_memo.get((labels[u], labels[v], du, dv))
                            if delta is None:
                                delta = delta_slow(labels[u], labels[v], du, dv)
                            if delta < 0:
                                continue
                            probes += 1
                            children = successor_rows[(state << shift) | delta]
                            if children is None:
                                continue
                            joined = register(m_new_edges + (e2,), children[0], m_new_ends + (u, v))
                        else:
                            grown = self._grow(m_new_edges, state, remaining, m_new_ends)
                            joined = (
                                register(grown[0], grown[1], grown[2])
                                if grown is not None
                                else None
                            )
                        if joined is not None:
                            produced.append(joined)
                            joins += 1
                frontier = [
                    m for m in produced if len(m.edges) < max_edges and extensible[m.state]
                ]
            stats.extension_probes += probes
            stats.pair_joins += joins
        return True

    def _register(
        self,
        edges: Iterable[int],
        state: int,
        ends: Tuple[int, ...],
        mandatory: bool = False,
    ) -> Optional[Match]:
        # Inlined MatchList.add fused with the per-vertex cap, on match
        # ids: duplicates are rejected up front by one sort-key dict probe
        # (a duplicate is already registered, so the cap holds for it by
        # construction), then a single pass appends the id while checking
        # bucket sizes, rolling back on a cap hit.  A cap hit is
        # not rare: with the default cap of 64, capped_registrations /
        # matches_created is 0.33–0.35 on the reference graph (the e2e
        # benchmark's core.matching.capped_share; ROADMAP item 3b weighs
        # the cap).  The extension loop therefore skips registrations it
        # can see are doomed before building them; what reaches here pays
        # one pass on success.  The Match object is only constructed once
        # registration is certain, so duplicate and capped attempts
        # allocate no more than the key.
        edges = tuple(sorted(edges))
        ids = self._ml_ids
        sort_key = (self._neg_support[state], len(edges), edges, state)
        if sort_key in ids:
            return None
        by_vertex = self._ml_by_vertex
        free = self._ml_free
        if free:
            mid = free.pop()
        else:
            mid = len(self._ml_arena)
            self._ml_arena.append(None)
            self._ml_keys.append(None)
        cap = -1 if mandatory else self.max_matches_per_vertex
        inserted = 0
        # mid is fresh, so it is in no bucket yet, and a bucket this pass
        # appended it to ends with it: a repeated id reads it at [-1].
        for vid in ends:
            bucket = by_vertex.get(vid)
            if bucket is None:
                by_vertex[vid] = [mid]
            elif bucket[-1] == mid:
                continue  # a repeated id: inserted at its first occurrence
            elif cap < 0 or len(bucket) < cap:
                bucket.append(mid)
            else:
                # Cap hit: undo this id's appends (bucket sizes are
                # pre-insert sizes for every vertex either way, so the
                # verdict is identical to a check-then-insert pass).
                for undo_vid in ends:
                    if inserted == 0:
                        break
                    undo_bucket = by_vertex.get(undo_vid)
                    if undo_bucket is not None and undo_bucket[-1] == mid:
                        if len(undo_bucket) == 1:
                            del by_vertex[undo_vid]
                        else:
                            undo_bucket.pop()
                        inserted -= 1
                free.append(mid)
                self.stats.capped_registrations += 1
                return None
            inserted += 1
        # Direct slot stores: edges is already the canonical sorted tuple
        # and the endpoints are in hand, in growth order, so Match.__init__
        # would only redo work (this is the per-match allocation hot spot).
        match = Match.__new__(Match)
        match.edges = edges
        match.state = state
        match._ends = ends
        match._sort_key = sort_key
        self._ml_arena[mid] = match
        self._ml_keys[mid] = sort_key
        ids[sort_key] = mid
        self.stats.matches_created += 1
        return match

    def _grow(
        self,
        edges: EdgeTuple,
        state: int,
        remaining: EdgeTuple,
        ends: Tuple[int, ...],
    ) -> Optional[Tuple[EdgeTuple, int, Tuple[int, ...]]]:
        """Grow a match by ``remaining`` edges one at a time (Alg. 2 lines
        13-18); ``None`` unless *all* of them can be added through plan
        successors, else the ``(edges, state, ends)`` of the fully grown
        match (the caller registers it — growth itself allocates no Match).

        ``remaining`` arrives as a sorted tuple of packed keys (the
        canonical match edge order; slicing preserves it down the
        recursion, so the edge order is identical to re-sorting at every
        level).  ``ends`` is the endpoint tuple (see :class:`Match`): a
        descent appends the added edge's endpoints to a new tuple, so a
        failed branch has nothing to undo.
        """
        if not remaining:
            return (edges, state, ends)
        if not self._extensible[state]:
            self.stats.leaf_gate_skips += 1
            return None  # leaf motif: no edge can be added through the plan
        labels = self.window._labels
        delta_memo = self._delta_memo
        delta_slow = self._delta_slow
        successor_rows = self._successor_rows
        shift = self._delta_shift
        stats = self.stats
        for i, e2 in enumerate(remaining):  # packed keys: (min_id, max_id) order
            u = e2 >> EDGE_SHIFT
            v = e2 & EDGE_MASK
            du = ends.count(u)
            dv = ends.count(v)
            if not du and not dv:
                continue  # not incident yet; a different order may reach it
            delta = delta_memo.get((labels[u], labels[v], du, dv))
            if delta is None:
                delta = delta_slow(labels[u], labels[v], du, dv)
            if delta < 0:
                continue
            stats.extension_probes += 1
            children = successor_rows[(state << shift) | delta]
            if children is None:
                continue
            rest = remaining[:i] + remaining[i + 1 :]
            grown = edges + (e2,)
            grown_ends = ends + (u, v)
            for child in children:
                result = self._grow(grown, child, rest, grown_ends)
                if result is not None:
                    return result
        return None

    # ------------------------------------------------------------------
    # Window sliding
    # ------------------------------------------------------------------
    def needs_eviction(self) -> bool:
        return self.window.is_overflowing()

    def pending(self) -> int:
        return len(self.window)

    def next_eviction(self) -> Eviction:
        """The oldest edge and its support-sorted match set ``Me``.

        Does not mutate: the caller allocates, then reports the assigned
        cluster through :meth:`remove_cluster`.
        """
        ekey, event = self.window.oldest_item()
        arena = self._ml_arena
        mids = sorted(self.matchlist._mids_with_edge(ekey), key=self._ml_keys.__getitem__)
        return Eviction(event=event, matches=[arena[mid] for mid in mids], ekey=ekey, mids=mids)

    def remove_cluster(
        self, ekeys: Iterable[int], eviction: Optional[Eviction] = None
    ) -> List[EdgeEvent]:
        """Remove assigned edges from the window and drop every match that
        contains any of them (Sec. 4: those matches lost constituent edges).

        Loom passes the :class:`Eviction` the cluster was auctioned from:
        the matches at its edge are then dropped by the ids it carries.
        Nothing may change the matchList between :meth:`next_eviction` and
        this call (the auction does not)."""
        self.matchlist._evict_edges(ekeys, eviction)
        return self.window.remove_ekeys(ekeys)

    # ------------------------------------------------------------------
    # Boundary translation
    # ------------------------------------------------------------------
    def edge_key(self, u: Vertex, v: Vertex) -> Optional[int]:
        """The packed key of the edge ``{u, v}``, or ``None`` if either
        endpoint has never passed through this matcher."""
        uid = self.interner.id_of(u)
        vid = self.interner.id_of(v)
        if uid is None or vid is None:
            return None
        return pack_edge(uid, vid)

    def resolve_vertices(self, match: Match) -> Set[Vertex]:
        """The vertex objects behind a match's interned ids."""
        vertex = self.interner.vertex
        return {vertex(vid) for vid in match.vertices}

    def resolve_edges(self, match: Match) -> List[Tuple[Vertex, Vertex]]:
        """The match's edges as vertex-object pairs (id order within pairs)."""
        vertex = self.interner.vertex
        return [
            (vertex(ekey >> EDGE_SHIFT), vertex(ekey & EDGE_MASK))
            for ekey in match.edges
        ]

    def resolve_node(self, match: Match):
        """The object-DAG trie node behind a match's plan state (debug
        boundary; pairs with ``plan.node_of``)."""
        return self.plan.node_of(match.state)

