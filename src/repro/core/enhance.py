"""Workload-weighted enhancement: one sweep rule over per-edge traversal counts.

The paper leaves keeping a partitioning current under workload drift to
future work (Sec. 6): a workload-aware repartitioner, or replaying the
stream.  This module is the first remedy in its simplest form, TAPER's move
rule: weigh every data edge by how often the workload traverses it
(:meth:`~repro.query.executor.WorkloadExecutor.edge_weights`) and let each
vertex follow the weight.

A sweep visits the vertices in interned-id order.  A vertex moves to the
partition holding the most of its weight, lowest id first on ties, only if
that partition holds strictly more than the vertex's own and is not full
(:meth:`PartitionState.is_full`).  Each move strictly lowers the cut weight
— the weighted ipt under those weights — so enhancement never raises it.
Sweeps repeat until one moves nothing, at most :data:`MAX_PASSES` times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.graph.labelled_graph import Edge
from repro.partitioning.state import UNASSIGNED, PartitionState

MAX_PASSES = 20
"""Upper bound on sweeps; the fixtures settle in a handful."""


@dataclass(frozen=True)
class EnhanceResult:
    """The enhanced partitioning and what it cost."""

    state: PartitionState
    moved_vertices: int
    """Vertices whose final partition differs from the input's."""
    passes: int
    """Sweeps run, the last one (which moved nothing, unless the bound
    stopped the loop) included."""


def enhance(state: PartitionState, weights: Dict[Edge, float]) -> EnhanceResult:
    """Move vertices of ``state`` toward their weighted neighbours; returns a
    fresh state on the same interner and leaves ``state`` untouched.

    Raises ``ValueError`` when a weighted edge has an unassigned endpoint.
    """
    assignment = list(state.assignment_vector)
    adjacency: List[List[Tuple[int, float]]] = [[] for _ in assignment]
    id_of = state.interner.id_of
    for (u, v), w in weights.items():
        if state.partition_of(u) is None or state.partition_of(v) is None:
            raise ValueError(f"weighted edge ({u!r}, {v!r}) has an unassigned endpoint")
        uid, vid = id_of(u), id_of(v)
        adjacency[uid].append((vid, w))
        adjacency[vid].append((uid, w))

    k, capacity = state.k, state.capacity
    sizes = state.sizes()
    passes = 0
    moved = True
    while moved and passes < MAX_PASSES:
        passes += 1
        moved = False
        for vid, neighbours in enumerate(adjacency):
            if not neighbours:
                continue
            held = [0.0] * k
            for nid, w in neighbours:
                held[assignment[nid]] += w
            own = assignment[vid]
            best = max(range(k), key=held.__getitem__)  # first maximum: lowest id
            if best != own and held[best] > held[own] and sizes[best] < capacity:
                sizes[own] -= 1
                sizes[best] += 1
                assignment[vid] = best
                moved = True

    enhanced = PartitionState(k, capacity, interner=state.interner)
    before = state.assignment_vector
    moved_vertices = 0
    for vid, p in enumerate(assignment):
        if p != UNASSIGNED:
            enhanced.assign_id(vid, p)
            moved_vertices += p != before[vid]
    return EnhanceResult(enhanced, moved_vertices, passes)
