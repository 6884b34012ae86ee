"""Workload-agnostic partition-quality metrics.

The paper's headline metric — inter-partition traversals under a workload —
lives in :mod:`repro.query.executor`; this module provides the classical
scale-free measures it is contrasted with (Sec. 1.3):

* **edge-cut** — edges whose endpoints land in different partitions (the
  objective LDG/Fennel/METIS optimise),
* **imbalance** — largest partition relative to the ideal ``n/k``,
* **communication volume** — for each vertex, the number of *distinct*
  remote partitions among its neighbours (Sheep's objective).
"""

from __future__ import annotations

from typing import Dict, List

from repro.graph.labelled_graph import LabelledGraph
from repro.partitioning.state import PartitionState


def edge_cut(graph: LabelledGraph, state: PartitionState) -> int:
    """Number of edges crossing partition boundaries."""
    # One snapshot of the assignment vector, then plain dict lookups — the
    # per-edge partition_of round-trips dominated this metric before.
    assignment = state.assignment()
    cut = 0
    for u, v in graph.edges():
        pu, pv = assignment.get(u), assignment.get(v)
        if pu is None or pv is None:
            raise ValueError(f"edge ({u!r}, {v!r}) has an unassigned endpoint")
        if pu != pv:
            cut += 1
    return cut


def cut_fraction(graph: LabelledGraph, state: PartitionState) -> float:
    """Edge-cut as a fraction of all edges (λ in the Fennel paper)."""
    if graph.num_edges == 0:
        return 0.0
    return edge_cut(graph, state) / graph.num_edges


def imbalance(state: PartitionState, num_vertices: int) -> float:
    """``max_i |V(Si)| / (n/k)`` — 1.0 is perfectly balanced."""
    if num_vertices == 0:
        return 1.0
    ideal = num_vertices / state.k
    return max(state.sizes()) / ideal


def communication_volume(graph: LabelledGraph, state: PartitionState) -> int:
    """Σ_v |{partitions ≠ partition(v) holding a neighbour of v}|."""
    assignment = state.assignment()
    total = 0
    for v in graph.vertices():
        home = assignment.get(v)
        remotes = set()
        for w in graph.neighbors(v):
            pw = assignment.get(w)
            if pw is not None and pw != home:
                remotes.add(pw)
        total += len(remotes)
    return total


def partition_quality_summary(graph: LabelledGraph, state: PartitionState) -> Dict[str, float]:
    """All workload-agnostic metrics in one dict (used by the harness)."""
    return {
        "edge_cut": float(edge_cut(graph, state)),
        "cut_fraction": cut_fraction(graph, state),
        "imbalance": imbalance(state, graph.num_vertices),
        "communication_volume": float(communication_volume(graph, state)),
        "assigned_vertices": float(state.num_assigned),
    }


def unassigned_vertices(graph: LabelledGraph, state: PartitionState) -> List:
    """Vertices of ``graph`` missing from ``state`` (should be empty after a
    completed pass; used by integration tests)."""
    return [v for v in graph.vertices() if not state.is_assigned(v)]
