"""Equal-opportunism allocation of motif-match clusters (paper Sec. 4).

When the window slides, the evicted edge ``e`` leaves together with (some
of) the motif matches ``Me`` containing it.  Equal opportunism decides the
destination partition and how much of the cluster moves:

* every partition ``Si`` and match ``⟨Ek, mk⟩`` gets a **bid** (Eq. 1)::

      bid(Si, ⟨Ek, mk⟩) = N(Si, Ek) · (1 − |V(Si)|/C) · supp(mk)

  — vertices already co-located, discounted by fullness, weighted by how
  likely the workload is to traverse the motif;

* a **rationing function** ``l(Si)`` (Eq. 2) limits greediness: a partition
  as small as the smallest may bid on (and take) the whole support-sorted
  cluster, larger partitions on a shrinking prefix, and partitions more
  than ``b×`` the smallest on nothing;

* the winner (Eq. 3) takes the prefix it bid on; unassigned vertices in
  those matches are placed in it.

The evicted edge is always in the first match of the prefix: ``Me`` is
sorted by support, descending, and the single-edge match of ``e`` dominates
every larger match containing ``e`` (ancestor support ≥ descendant support).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.matching import Match
from repro.partitioning.state import PartitionState

FallbackChooser = Callable[[Set[int]], int]
"""Given a cluster's vertex-id set, pick a partition when every bid is zero."""

DEFAULT_ALPHA = 2.0 / 3.0
"""The paper's empirically chosen rationing aggression (Sec. 4)."""

DEFAULT_BALANCE_CAP = 1.1
"""Maximum imbalance ``b`` — emulates Fennel's ν = 1.1 (Sec. 4)."""


@dataclass
class AllocationDecision:
    """Outcome of one equal-opportunism auction.

    ``assigned_edges`` holds packed edge keys and ``assigned_vertices``
    interner ids — the auction runs on id-based matches end to end; callers
    needing vertex objects translate through the state's interner.
    """

    winner: int
    assigned_matches: List[Match]
    assigned_edges: Set[int]
    assigned_vertices: Set[int]
    bids: List[float]
    fallback: bool  # True when every bid was zero and balance chose


class EqualOpportunism:
    """The equal-opportunism heuristic (Eqs. 1–3) over a shared state.

    Matches are id-based, and the ids must come from **this state's
    interner**: overlap counts index ``state.assignment_vector`` with
    ``match.vertices`` and the auction assigns through ``assign_id``.
    Loom guarantees this by constructing its :class:`StreamMatcher` with
    ``state.interner``; a standalone matcher's private interner is a
    *different id space*, and pairing it with a separate state miscounts
    silently.  Build such matchers with ``interner=state.interner``.
    """

    def __init__(
        self,
        state: PartitionState,
        alpha: float = DEFAULT_ALPHA,
        balance_cap: float = DEFAULT_BALANCE_CAP,
        rationing_enabled: bool = True,
        support_weighting: bool = True,
        neighbor_ids_fn: Optional[Callable[[int], Iterable[int]]] = None,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if balance_cap < 1.0:
            raise ValueError("balance_cap must be at least 1")
        self.state = state
        # Live view of the interned state, bound once: the auction scores
        # every match of every eviction, so per-vertex method dispatch here
        # is measurable at streaming rates.  Matches arrive id-keyed, so no
        # vertex → id translation happens per auction at all.
        self._assignment = state.assignment_vector
        self.alpha = alpha
        self.balance_cap = balance_cap
        # Ablation switches (both True reproduces the paper's heuristic).
        self.rationing_enabled = rationing_enabled
        self.support_weighting = support_weighting
        # N(Si, Ek) generalises LDG's N (paper footnote 8).  With a
        # neighbour function the overlap counts the match's assigned
        # vertices *plus* edges from the match into Si — the "most incident
        # edges" reading of Sec. 4's naive strategy; without one it counts
        # only the match's own assigned vertices (the literal Eq. 1).
        # Loom's neighbour-aware ablation passes its id adjacency here.
        self.neighbor_ids_fn = neighbor_ids_fn

    # ------------------------------------------------------------------
    # Eq. 2: the rationing function l
    # ------------------------------------------------------------------
    def ration(self, partition: int) -> float:
        """``l(Si)`` ∈ [0, 1]: how much of a cluster ``Si`` may bid on.

        Eq. 2 read together with its worked example (a partition 33.3%
        larger than the smallest rations to ``1/1.33 · 1/1.5 = 1/2``, i.e.
        ``α·|V(Smin)|/|V(Si)|`` with α = 2/3): 1 for partitions as small as
        the smallest, 0 for partitions at the hard imbalance cap ``b``
        ("emulating Fennel", whose ν = 1.1 caps against the *ideal* size —
        that cap is the state's capacity ``C``), otherwise the α-scaled
        inverse relative size.  The smallest size is floored at 1 so a
        cold-start state rations nobody out.
        """
        if not self.rationing_enabled:
            return 1.0
        size = self.state.size(partition)
        if self.state.is_full(partition):
            return 0.0
        smallest = max(self.state.min_size(), 1)
        if size <= smallest:
            return 1.0
        return min(1.0, self.alpha * smallest / size)

    # ------------------------------------------------------------------
    # Eq. 1: bids
    # ------------------------------------------------------------------
    def _overlap_counts(self, match: Match) -> List[int]:
        """``N(Si, Ek)`` for every partition at once.

        Counts the match's own assigned vertices and, when a neighbour
        function is available, the assigned neighbours of the match — one
        count per distinct vertex, like LDG counts a vertex's placed
        neighbours.  Match vertices *are* interner ids, so the base count
        is a direct index into the assignment vector.
        """
        counts = [0] * self.state.k
        assignment = self._assignment
        n = len(assignment)
        match_ids = match.vertices
        for vid in match_ids:
            if vid < n:
                p = assignment[vid]
                if p >= 0:
                    counts[p] += 1
        if self.neighbor_ids_fn is not None:
            seen_ids: Set[int] = set()
            for vid in match_ids:
                for wid in self.neighbor_ids_fn(vid):
                    if wid not in match_ids and wid not in seen_ids:
                        seen_ids.add(wid)
                        if wid < n:
                            p = assignment[wid]
                            if p >= 0:
                                counts[p] += 1
        return counts

    def bid(self, partition: int, match: Match) -> float:
        """``bid(Si, ⟨Ek, mk⟩)`` — Eq. 1."""
        overlap = self._overlap_counts(match)[partition]
        if overlap == 0:
            return 0.0
        residual = self.state.residual_capacity(partition)
        support = match.support if self.support_weighting else 1.0
        return overlap * residual * support

    # ------------------------------------------------------------------
    # Eq. 3: the auction
    # ------------------------------------------------------------------
    def allocate(
        self,
        matches: Sequence[Match],
        fallback_chooser: Optional[FallbackChooser] = None,
    ) -> AllocationDecision:
        """Run the auction for a support-sorted cluster ``Me``.

        The caller (Loom) guarantees ``matches`` is non-empty, sorted by
        support descending, and that every match contains the evicted edge.
        Vertices of the winning prefix not yet placed are assigned to the
        winner here; the caller removes the edges from the window.

        ``fallback_chooser`` decides the destination when every bid is zero
        (no cluster vertex is placed anywhere yet, or holders are full) —
        Loom passes an LDG choice over the cluster's seen neighbourhood,
        the same heuristic it applies to unmatched edges (Sec. 4); without
        one the least-loaded open partition is seeded.
        """
        if not matches:
            raise ValueError("allocate requires at least one match")

        total = len(matches)
        # Inlined Eq. 2 (same arithmetic as :meth:`ration`): one sizes
        # read and one min() instead of k of each, per auction.  The live
        # size list is only read before any assignment below mutates it.
        k = self.state.k
        sizes = self.state._sizes
        capacity = self.state.capacity
        if self.rationing_enabled:
            smallest = max(min(sizes), 1)
            alpha = self.alpha
            rations = [
                0.0
                if size >= capacity
                else (1.0 if size <= smallest else min(1.0, alpha * smallest / size))
                for size in sizes
            ]
        else:
            rations = [1.0] * k
        prefix_lengths = [
            total if r >= 1.0 else math.ceil(r * total) for r in rations
        ]
        # Bids only look at each partition's rationed prefix, so overlap
        # counts beyond the longest prefix are never read — and Me can be
        # much longer than any ration allows.  One pass over the scored
        # matches accumulates every partition's running prefix total;
        # partition i's bid is then the row at its own prefix length.  The
        # term grouping ((overlap · residual) · support) and the ascending
        # summation order are those of the per-partition sums this
        # replaces, so the bids are bit-identical, k× cheaper.  Zero-count
        # partitions contribute an exact 0.0 term and are skipped, so the
        # overlaps are accumulated sparsely (matches touch few partitions).
        scored = max(max(prefix_lengths), 1)
        residuals = [max(0.0, 1.0 - size / capacity) for size in sizes]
        support_weighting = self.support_weighting
        sparse_overlaps = self.neighbor_ids_fn is None
        overlap_counts = self._overlap_counts
        assignment = self._assignment
        n = len(assignment)
        row: List[float] = [0.0] * k
        prefix_rows: List[List[float]] = [row]
        for m in matches[:scored]:
            support = m.support if support_weighting else 1.0
            row = row[:]
            if sparse_overlaps:
                counts: Dict[int, int] = {}
                for vid in m.vertices:
                    if vid < n:
                        p = assignment[vid]
                        if p >= 0:
                            counts[p] = counts.get(p, 0) + 1
                for p, c in counts.items():
                    row[p] += c * residuals[p] * support
            else:
                full_counts = overlap_counts(m)
                for p in range(k):
                    c = full_counts[p]
                    if c:
                        row[p] += c * residuals[p] * support
            prefix_rows.append(row)
        bids: List[float] = [prefix_rows[prefix_lengths[i]][i] for i in range(k)]

        winner = self._pick_winner(bids, sizes)
        fallback = bids[winner] <= 0.0
        if fallback:
            cluster_ids: Set[int] = set()
            for m in matches:
                cluster_ids.update(m.vertices)
            if fallback_chooser is not None:
                winner = fallback_chooser(cluster_ids)
            else:
                open_parts = self.state.open_partitions() or list(range(self.state.k))
                winner = min(open_parts, key=lambda i: (self.state.size(i), i))

        take = max(1, prefix_lengths[winner])  # the evicted edge must go
        assigned = list(matches[:take])
        edges: Set[int] = set()
        vertices: Set[int] = set()
        for m in assigned:
            edges.update(m.edges)
            vertices.update(m.vertices)
        assign_id = self.state.assign_id
        for vid in sorted(vertices):  # id order: deterministic, repr-free
            if vid < n and assignment[vid] >= 0:
                continue
            if sizes[winner] >= capacity:  # live list: tracks assigns below
                # The hard cap (ν = b = 1.1, "emulating Fennel") is strict:
                # a cluster larger than the winner's remaining capacity
                # spills its tail to the least-loaded open partition.
                spill_to = self.state.open_partitions()
                target = min(spill_to, key=lambda i: (sizes[i], i)) if spill_to else winner
                assign_id(vid, target)
            else:
                assign_id(vid, winner)
        return AllocationDecision(
            winner=winner,
            assigned_matches=assigned,
            assigned_edges=edges,
            assigned_vertices=vertices,
            bids=bids,
            fallback=fallback,
        )

    def _pick_winner(self, bids: List[float], sizes: Optional[List[int]] = None) -> int:
        """Highest bid; ties go to the smaller partition, then lower index."""
        if sizes is None:
            sizes = self.state.sizes()
        best = 0
        best_key: Optional[Tuple[float, int, int]] = None
        for i, b in enumerate(bids):
            key = (-b, sizes[i], i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best
