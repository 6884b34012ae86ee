"""Fennel (Tsourakakis et al., WSDM 2014) — the paper's primary comparator.

Fennel balances cut quality against partition growth with an explicit
objective: place vertex ``v`` in

    argmax_i  |N(v) ∩ V(Si)| − δc(|V(Si)|)

where the marginal balance cost is ``δc(s) = α·((s+1)^γ − s^γ)`` for a cost
function ``c(s) = α·s^γ``.  Following the Fennel paper (and Loom's
evaluation, Sec. 5.1) we use γ = 1.5, α = √k · m / n^1.5, and a hard load
cap of ν·n/k with ν = 1.1.

Like the LDG implementation this is the edge-stream variant: endpoints are
placed on first sight using neighbours seen so far.  The adjacency is kept
as interned-id sets and every placement computes all k neighbourhood
overlaps in one pass over the assignment vector.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.graph.stream import EdgeEvent
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.state import PartitionState

FENNEL_GAMMA = 1.5
"""γ used throughout the paper's evaluation ("we use γ = 1.5")."""

FENNEL_NU = 1.1
"""Hard imbalance cap ν (partitions never exceed ν·n/k vertices)."""


def fennel_alpha(k: int, num_vertices: int, num_edges: int, gamma: float = FENNEL_GAMMA) -> float:
    """The Fennel weighting ``α = √k · m / n^γ`` (γ = 1.5 ⇒ n^1.5)."""
    if num_vertices < 1:
        raise ValueError("num_vertices must be positive")
    return math.sqrt(k) * num_edges / (num_vertices**gamma)


class FennelPartitioner(StreamingPartitioner):
    """Fennel over an edge stream.

    Parameters
    ----------
    state:
        Shared partition state; its capacity should be ``ν·n/k`` (the
        harness builds it with imbalance 1.1 to match).
    expected_vertices / expected_edges:
        Stream-level totals used to set α.  Streaming partitioners assume
        these are known a priori (both the LDG and Fennel papers do).
    """

    name = "fennel"

    def __init__(
        self,
        state: PartitionState,
        expected_vertices: int,
        expected_edges: int,
        gamma: float = FENNEL_GAMMA,
        alpha: Optional[float] = None,
    ) -> None:
        super().__init__(state)
        self.gamma = gamma
        self.alpha = (
            alpha
            if alpha is not None
            else fennel_alpha(state.k, expected_vertices, expected_edges, gamma)
        )
        self._ids = state.interner.id_map
        self._assignment = state.assignment_vector
        # δc(s) memo, filled on demand: partition sizes only take values in
        # [0, C], and (s+1)^γ − s^γ is by far the dearest term of the score.
        self._marginal_costs: list = []

    def _marginal_cost(self, size: int) -> float:
        cache = self._marginal_costs
        if size < len(cache):
            return cache[size]
        alpha, gamma = self.alpha, self.gamma
        while len(cache) <= size:
            s = len(cache)
            cache.append(alpha * ((s + 1) ** gamma - s**gamma))
        return cache[size]

    def _place_id(self, vid: int, neighbor_id: int) -> None:
        # At placement time the vertex's only seen neighbour is the other
        # endpoint of its first edge (assignments are permanent and happen
        # on first sight) — see the LDGPartitioner docstring; the golden
        # assignment digests pin the placements the seed's adjacency version made.
        state = self.state
        sizes = state._sizes
        capacity = state.capacity
        assignment = self._assignment
        neighbor_partition = assignment[neighbor_id]
        candidates = [i for i in range(state.k) if sizes[i] < capacity] or list(range(state.k))
        marginal_cost = self._marginal_cost
        best = candidates[0]
        best_score = -math.inf
        best_size = None
        for i in candidates:
            size = sizes[i]
            count = 1 if i == neighbor_partition else 0
            score = count - marginal_cost(size)
            if score > best_score or (score == best_score and size < best_size):
                best, best_score, best_size = i, score, size
        state.assign_id(vid, best)

    def ingest(self, event: EdgeEvent) -> None:
        state = self.state
        ids = self._ids
        assignment = self._assignment
        u, v = event.u, event.v
        # The `>=` arm covers a *shared* interner that already knows the
        # vertex while this state's vector hasn't grown to its id yet.
        uid = ids.get(u)
        if uid is None or uid >= len(assignment):
            uid = state.intern(u)
        vid = ids.get(v)
        if vid is None or vid >= len(assignment):
            vid = state.intern(v)
        if assignment[uid] < 0:
            self._place_id(uid, vid)
        if assignment[vid] < 0:
            self._place_id(vid, uid)
