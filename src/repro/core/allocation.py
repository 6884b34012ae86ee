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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.matching import Match
from repro.partitioning.state import PartitionState

FallbackChooser = Callable[[Set[int]], int]
"""Given a cluster's vertex-id set, pick a partition when every bid is zero."""

ALPHA = 2.0 / 3.0
"""The paper's empirically chosen rationing aggression (Sec. 4)."""


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

    def __init__(self, state: PartitionState) -> None:
        self.state = state
        # Live view of the interned state, bound once: the auction scores
        # every match of every eviction, so per-vertex method dispatch here
        # is measurable at streaming rates.  Matches arrive id-keyed, so no
        # vertex → id translation happens per auction at all.
        self._assignment = state.assignment_vector

    # ------------------------------------------------------------------
    # Eq. 2: the rationing function l
    # ------------------------------------------------------------------
    def _rations(self) -> List[float]:
        """``l(Si)`` for every partition at once: one sizes read and one
        ``min()`` — the form the auction uses, :meth:`ration` one entry of it."""
        sizes = self.state._sizes
        capacity = self.state.capacity
        smallest = max(min(sizes), 1)
        return [
            0.0
            if size >= capacity
            else (1.0 if size <= smallest else min(1.0, ALPHA * smallest / size))
            for size in sizes
        ]

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
        return self._rations()[partition]

    # ------------------------------------------------------------------
    # Eq. 1: bids
    # ------------------------------------------------------------------
    def bid(self, partition: int, match: Match) -> float:
        """``bid(Si, ⟨Ek, mk⟩)`` — Eq. 1, where ``N(Si, Ek)`` counts the
        match's own vertices already in ``Si`` (match vertices *are*
        interner ids)."""
        overlap = self.state.count_ids_in_partition(match.vertices, partition)
        if overlap == 0:
            return 0.0
        return overlap * self.state.residual_capacity(partition) * match.support

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
        # The live size list is only read before any assignment below
        # mutates it.
        k = self.state.k
        sizes = self.state._sizes
        capacity = self.state.capacity
        prefix_lengths = [
            total if r >= 1.0 else math.ceil(r * total) for r in self._rations()
        ]
        # Bids only look at each partition's rationed prefix, so overlap
        # counts beyond the longest prefix are never read — and Me can be
        # much longer than any ration allows.  One pass over the scored
        # matches accumulates every partition's running prefix total;
        # partition i's bid is then the row at its own prefix length.  The
        # term grouping ((overlap · residual) · support) and the ascending
        # summation order are those of summing :meth:`bid` over the prefix,
        # so the bids are bit-identical, k× cheaper.  Zero-count
        # partitions contribute an exact 0.0 term and are skipped, so the
        # overlaps are accumulated sparsely (matches touch few partitions).
        # Each scored match's distinct ids are built once and kept: the
        # assigned matches are a prefix of the scored ones.
        scored = max(max(prefix_lengths), 1)
        residuals = [max(0.0, 1.0 - size / capacity) for size in sizes]
        assignment = self._assignment
        n = len(assignment)
        row: List[float] = [0.0] * k
        prefix_rows: List[List[float]] = [row]
        scored_ids: List[Dict[int, None]] = []
        for m in matches[:scored]:
            support = m.support
            match_ids = m.vertices
            scored_ids.append(match_ids)
            row = row[:]
            counts: Dict[int, int] = {}
            for vid in match_ids:
                if vid < n:
                    p = assignment[vid]
                    if p >= 0:
                        counts[p] = counts.get(p, 0) + 1
            for p, c in counts.items():
                row[p] += c * residuals[p] * support
            prefix_rows.append(row)
        bids: List[float] = [prefix_rows[prefix_lengths[i]][i] for i in range(k)]

        winner = self._pick_winner(bids, sizes)
        fallback = bids[winner] <= 0.0
        if fallback:
            cluster_ids: Set[int] = set()
            for match_ids in scored_ids:
                cluster_ids.update(match_ids)
            for m in matches[scored:]:
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
        for m, match_ids in zip(assigned, scored_ids):
            edges.update(m.edges)
            vertices.update(match_ids)
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

    def _pick_winner(self, bids: List[float], sizes: List[int]) -> int:
        """Highest bid; ties go to the smaller partition, then lower index."""
        best = 0
        best_key: Optional[Tuple[float, int, int]] = None
        for i, b in enumerate(bids):
            key = (-b, sizes[i], i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best
