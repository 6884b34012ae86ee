"""The Loom streaming partitioner (paper Secs. 2–4 composed).

Loom continuously partitions an online graph into ``k`` parts, optimising
vertex placement for a workload ``Q`` of pattern-matching queries:

1. At construction it builds the TPSTry++ for ``Q``, filters it to the
   motif index at support threshold ``T`` (default 40%, Sec. 5.1), and
   **compiles** the filtered trie into a flat integer
   :class:`~repro.core.plan.MotifPlan` — the form the stream matcher
   actually executes (objects at construction, ints on the stream).
2. Each arriving edge is checked against the single-edge motifs.  A
   matching edge enters the sliding window ``Ptemp`` (default size 10k
   edges in the paper; scaled presets live in the harness), where Alg. 2
   maintains the matchList.  A non-matching edge never enters the window.
   Its endpoints are placed at once with the LDG heuristic, except one
   whose *label* occurs in a motif: no query traverses this edge, so it
   must not decide where a vertex a motif edge may still reach will live.
   Such a vertex is parked for one window turnover (``capacity``
   gate-passing edges, the longest a window edge waits); an auction that
   reaches it meanwhile places it, otherwise LDG does when the wait ends
   (ARCHITECTURE.md, "Deviation from Sec. 3").
3. When the window overflows, the oldest edge and its motif-match cluster
   are auctioned to partitions by equal opportunism (Sec. 4); the winning
   prefix of matches leaves the window together and its vertices are placed.
4. When the stream ends, :meth:`finalize` drains the window through the same
   eviction path, then LDG-places whatever is still parked.

The defaults mirror the paper: α = 2/3, p = 251, T = 40%; b = 1.1 is
:class:`~repro.partitioning.state.PartitionState`'s ``imbalance`` (the
``for_graph`` default), which sets the capacity ``C`` bids and rations read.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Set

from repro.core.allocation import EqualOpportunism
from repro.core.matching import StreamMatcher
from repro.core.motifs import MotifIndex
from repro.core.signature import DEFAULT_PRIME, SignatureScheme
from repro.core.tpstry import TPSTry
from repro import obs
from repro.graph.labelled_graph import Vertex
from repro.graph.stream import EdgeEvent
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.ldg import ldg_choose_ids
from repro.partitioning.state import PartitionState
from repro.query.workload import Workload

DEFAULT_SUPPORT_THRESHOLD = 0.4
"""Motif support threshold used throughout the evaluation (Sec. 5.1)."""

DEFAULT_WINDOW_SIZE = 10_000
"""The paper's default window: 10k edges (Sec. 5.1)."""


class LoomPartitioner(StreamingPartitioner):
    """Query-aware streaming partitioner."""

    name = "loom"

    def __init__(
        self,
        state: PartitionState,
        workload: Workload,
        window_size: int = DEFAULT_WINDOW_SIZE,
        support_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
        seed: int = 0,
        max_matches_per_vertex: int = 64,
        defer_motif_vertices: bool = True,
    ) -> None:
        super().__init__(state)
        self.workload = workload
        self.scheme = SignatureScheme(workload.label_set(), p=DEFAULT_PRIME, seed=seed)
        self.trie = TPSTry.from_workload(workload, self.scheme)
        self.index = MotifIndex(self.trie, support_threshold)
        # Compile boundary: the object DAG stays for introspection/drift
        # updates, the matcher consumes only the flat integer plan.
        self.plan = self.index.compile()
        # The matcher shares the state's interner: match vertex ids index
        # the assignment vector directly, so the auction never re-interns.
        self.matcher = StreamMatcher(
            self.plan,
            window_size,
            max_matches_per_vertex=max_matches_per_vertex,
            interner=state.interner,
        )
        # Seen-so-far adjacency over interned ids, for vertices whose label
        # occurs in a motif: only those can wait (parked or windowed) for a
        # later LDG placement, and only those reach the zero-bid fallback.
        # Any other vertex is placed at its first edge, over that edge's far
        # endpoint.  The one structure here that grows with the stream
        # (ARCHITECTURE.md, "Resident state"), so a list: every motif-label
        # edge appends, while reads are rare and deduplicate (a raw stream
        # may repeat an edge).
        self._adj: Dict[int, List[int]] = {}
        # Live views bound once for the per-event fast path (in-package
        # inner-loop binding, ARCHITECTURE.md): the assignment vector grows
        # in place; the window's id -> label dict is keyed by its vertices.
        self._assignment = state.assignment_vector
        self._window_vertices = self.matcher.window._labels
        self._window_events = self.matcher.window._events
        self._window_capacity = self.matcher.window.capacity
        # Motif-label vertices a non-motif edge met first: vid -> the
        # ``root_hits`` reading that ends the wait.  The clock is monotone
        # and the horizon constant, so this insertion-ordered dict is a FIFO
        # whose head holds the earliest deadline; a vertex is parked at most
        # once (it leaves assigned, or in the window, which assigns it).
        # ``defer_motif_vertices=False`` is the ablation: nothing parks.
        self._parked: OrderedDict[int, int] = OrderedDict()
        self._park_labels: FrozenSet[str] = (
            self.plan.motif_labels if defer_motif_vertices else frozenset()
        )
        self.allocator = EqualOpportunism(state)
        self.stats = {
            # Non-motif *edges* that bypassed the window; either endpoint may
            # have been placed earlier, be held by the window, or be parked.
            "immediate_assignments": 0,
            "evictions": 0,
            "fallback_allocations": 0,
            "cluster_edges_assigned": 0,
            # The deferral queue: vertices ever parked, of those how many
            # were found placed or windowed when their wait ended, how many
            # LDG had to place (at the deadline or in finalize), and the
            # queue's high-water mark.  claimed + aged_out + len(queue) ==
            # deferred_vertices at every edge boundary.
            "deferred_vertices": 0,
            "deferred_claimed": 0,
            "deferred_aged_out": 0,
            "deferred_peak": 0,
        }
        # Observability (repro.obs): NULL stubs unless obs.enable() ran
        # before construction, so the disabled path is a dead attribute
        # call per *batch* — never per edge.  Per-edge counts are not
        # duplicated into the registry; the existing stats dicts join the
        # snapshot through collectors, read only at snapshot() time.
        self._obs_on = obs.enabled()
        self._obs_batches = obs.counter("loom.ingest.batches")
        self._obs_events = obs.counter("loom.ingest.events")
        self._obs_window_fill = obs.gauge("loom.window.high_water")
        self._obs_matchlist_fill = obs.gauge("loom.matchlist.high_water")
        self._obs_adjacency = obs.gauge("loom.adjacency.vertices")
        self._trace = obs.tracer()
        self._trace_on = self._trace.enabled
        obs.register_collector("loom.matcher", self.matcher.stats.as_dict)
        obs.register_collector("loom.partitioner", lambda: dict(self.stats))

    # ------------------------------------------------------------------
    # Streaming protocol
    # ------------------------------------------------------------------
    def ingest(self, event: EdgeEvent) -> None:
        self._ingest_events((event,), account=False)

    def ingest_batch(self, events) -> int:
        """:meth:`ingest` semantics over a whole iterable of events, plus
        the batch-level accounting (``edges_ingested``, telemetry).

        Placements, window contents and every counter are independent of
        how the stream is cut into batches (the batch ≡ per-event suites
        under ``tests/`` pin it).
        """
        count = self._ingest_events(events, account=True)
        # Batch-granular telemetry: dead calls on the NULL stubs when
        # disabled; deterministic fields (counts, not clocks) when on.
        self._obs_batches.inc()
        self._obs_events.inc(count)
        if self._obs_on:
            self._obs_window_fill.high_water(len(self._window_events))
            self._obs_matchlist_fill.high_water(len(self.matcher.matchlist))
            self._obs_adjacency.set(len(self._adj))
        if self._trace_on:
            windowed = len(self._window_events)
            self._trace.event(
                "ingest.batch",
                n=count,
                windowed=windowed,
                ingested=self.edges_ingested,
                evictions=self.stats["evictions"],
            )
        return count

    def _ingest_events(self, events, account: bool) -> int:
        """The one per-edge ingest loop, in stream order: intern, record the
        seen-so-far adjacency, gate, then window-and-match or place.

        Interning and the adjacency must interleave with placements: LDG
        reads the adjacency as of the edge's arrival, and an eviction
        triggered by a windowed edge must see exactly the edges before it.
        The gate is :meth:`StreamMatcher.offer`'s, inlined: one probe of the
        plan's root memo (its slow path on a miss), with the matcher's gate
        counters bumped per reached edge — so an exception mid-stream (a
        :class:`~repro.core.window.LabelConflictError`, say) leaves every
        counter where a per-event run stopped at the same edge leaves it.
        ``account`` adds the completed events to ``edges_ingested`` even
        then; per-event :meth:`ingest` leaves that to its caller, as the
        base class does.
        """
        intern = self.state.interner.intern
        adj = self._adj
        motif_labels = self.plan.motif_labels
        matcher = self.matcher
        root_memo = matcher._root_memo
        root_entry = matcher._root_entry
        absorb = matcher._absorb
        mstats = matcher.stats
        window_events = self._window_events
        window_capacity = self._window_capacity
        stats = self.stats
        ldg_place = self._ldg_place
        evict_once = self._evict_once
        parked = self._parked
        release_due = self._release_due
        count = 0
        try:
            for event in events:
                # state.intern's assignment-vector growth is skipped: every
                # consumer of the vector guards ``vid < len`` and assign_id
                # grows it on demand.
                uid = intern(event.u)
                vid = intern(event.v)
                u_label = event.u_label
                v_label = event.v_label
                if u_label in motif_labels:
                    bucket = adj.get(uid)
                    if bucket is None:
                        adj[uid] = [vid]
                    else:
                        bucket.append(vid)
                if v_label in motif_labels:
                    bucket = adj.get(vid)
                    if bucket is None:
                        adj[vid] = [uid]
                    else:
                        bucket.append(uid)
                mstats.edges_offered += 1
                got = root_memo.get((u_label, v_label))
                if got is None:
                    got = root_entry(u_label, v_label)
                root = got[0]
                if root < 0:
                    # Sec. 3: the edge can never join a motif match — it
                    # does not displace window edges, and LDG places its
                    # endpoints now.  Endpoints the window holds are *not*
                    # pinned here: their placement belongs to the motif
                    # cluster they are part of (Sec. 4's allocation).  Nor
                    # are motif-label endpoints: those are parked.
                    mstats.edges_bypassed += 1
                    ldg_place(uid, u_label, vid)
                    ldg_place(vid, v_label, uid)
                    stats["immediate_assignments"] += 1
                else:
                    mstats.root_hits += 1
                    absorb(event, uid, vid, root, got[1], got[2])
                    while len(window_events) > window_capacity:
                        evict_once()
                    if parked:
                        release_due(mstats.root_hits)
                count += 1
        finally:
            if account:
                self.edges_ingested += count
        return count

    def finalize(self) -> None:
        """Drain ``Ptemp``: every remaining edge leaves via the normal
        eviction/allocation path (the stream has ended).  Then nothing can
        claim a parked vertex any more: the queue is settled oldest first.

        The window, the matchList's indexes and the queue are empty then,
        but a dict keeps the table of its high-water mark as it empties;
        they are cleared in place (bound references stay valid), so a
        finished partitioner holds no window-sized tables.  Ingest may go
        on afterwards exactly as before."""
        matcher = self.matcher
        while matcher.pending() > 0:
            self._evict_once()
        # Draining the window is one full turnover: every deadline is due.
        self._release_due(matcher.stats.root_hits + self._window_capacity)
        window = matcher.window
        matchlist = matcher.matchlist
        for table in (
            window._events,
            window._labels,
            window._degree,
            matchlist._ids,
            matchlist._by_vertex,
            self._parked,
        ):
            table.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ldg_place(self, vid: int, label: str, other: int) -> None:
        """Place an endpoint of a non-motif edge ``{vid, other}``, unless a
        motif edge may still have a say in where it goes.

        Vertices currently held in ``Ptemp`` are skipped: every window
        vertex is eventually assigned by a cluster allocation (each window
        edge leaves through an eviction, which places its endpoints), and
        letting an incidental non-motif edge pin such a vertex early would
        make the motif allocation a no-op for it.  A vertex whose label
        occurs in a motif is parked for the same reason, one step earlier:
        for one window turnover a motif edge may yet bring it to an auction.

        A vertex placed here is at its first edge (at an earlier one it
        would have been placed, parked or windowed, and the window releases
        only placed vertices), so ``other`` is all it has seen — given one
        label per vertex, :class:`~repro.graph.labelled_graph.LabelledGraph`'s rule.
        """
        assignment = self._assignment
        if vid < len(assignment) and assignment[vid] >= 0:
            return
        if vid in self._window_vertices:
            return
        if label not in self._park_labels:
            self._place_now(vid, (other,))
            return
        parked = self._parked
        if vid not in parked:
            parked[vid] = self.matcher.stats.root_hits + self._window_capacity
            stats = self.stats
            stats["deferred_vertices"] += 1
            if len(parked) > stats["deferred_peak"]:
                stats["deferred_peak"] = len(parked)

    def _release_due(self, now: int) -> None:
        """Settle, oldest first, every parked vertex whose wait ended by
        window-clock reading ``now``.  One the window holds is left to its
        cluster's auction and one an auction already placed needs nothing;
        LDG places the rest over the adjacency seen so far."""
        parked = self._parked
        state = self.state
        while parked:
            vid, deadline = next(iter(parked.items()))
            if deadline > now:
                break
            del parked[vid]
            if state.is_assigned_id(vid) or vid in self._window_vertices:
                self.stats["deferred_claimed"] += 1
            else:
                self._place_now(vid, set(self._adj.get(vid, ())))
                self.stats["deferred_aged_out"] += 1

    def _place_now(self, vid: int, neighbor_ids: Iterable[int]) -> None:
        """The workload-agnostic placement itself: LDG over the neighbours
        vertex ``vid`` has been seen with."""
        self.state.assign_id(vid, ldg_choose_ids(self.state, neighbor_ids))

    def _ldg_cluster_choice(self, cluster_ids: Set[int]) -> int:
        """LDG over the union of the cluster's seen neighbourhoods — the
        zero-bid fallback (same heuristic as unmatched edges, Sec. 4).
        ``cluster_ids`` arrives already interned (the auction passes match
        ids straight through)."""
        neighborhood: Set[int] = set()
        for vid in cluster_ids:  # detlint: disable=DET-setiter (set-union accumulation is commutative)
            neighborhood.update(self._adj.get(vid, ()))
        neighborhood -= cluster_ids
        return ldg_choose_ids(self.state, neighborhood)

    def _evict_once(self) -> None:
        eviction = self.matcher.next_eviction()
        evictions = self.stats["evictions"] + 1
        self.stats["evictions"] = evictions
        if eviction.matches:
            decision = self.allocator.allocate(
                eviction.matches, fallback_chooser=self._ldg_cluster_choice
            )
            if decision.fallback:
                self.stats["fallback_allocations"] += 1
            self.stats["cluster_edges_assigned"] += len(decision.assigned_edges)
            # Evictions are per-edge-overflow frequent, so the trace is
            # deterministically sampled (every 256th, counted not timed)
            # to hold the enabled-path cost inside the ≤2% budget.
            if self._trace_on and evictions & 255 == 1:
                self._trace.event(
                    "loom.evict",
                    n=evictions,
                    matches=len(eviction.matches),
                    assigned=len(decision.assigned_edges),
                    fallback=decision.fallback,
                )
            self.matcher.remove_cluster(decision.assigned_edges, eviction)
        else:
            # Defensive: a window edge always has at least its single-edge
            # match, but if it somehow lost it, place its endpoints now —
            # forced, since the edge is leaving the window for good.
            for v in (eviction.event.u, eviction.event.v):
                vid = self.state.intern(v)
                if not self.state.is_assigned_id(vid):
                    self._place_now(vid, set(self._adj.get(vid, ())))
            self.matcher.remove_cluster({eviction.ekey})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def window_occupancy(self) -> int:
        return self.matcher.pending()

    def parked_vertices(self) -> List[Vertex]:
        """Vertices still waiting in the deferral queue — neither placed
        nor held by the window — oldest first."""
        state = self.state
        return [
            state.interner.vertex(vid)
            for vid in self._parked
            if not state.is_assigned_id(vid) and vid not in self._window_vertices
        ]

    def motif_summary(self) -> Dict[str, float]:
        """Key facts about the workload analysis (for reports and tests)."""
        return {
            "trie_nodes": float(self.trie.num_nodes),
            "motifs": float(self.index.num_motifs),
            "single_edge_motifs": float(len(self.index.single_edge_motifs())),
            "max_motif_edges": float(self.index.max_motif_edges),
            "plan_states": float(self.plan.num_states),
            "plan_deltas": float(self.plan.num_deltas),
        }
