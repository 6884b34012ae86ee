"""Linear Deterministic Greedy — LDG (Stanton & Kliot, KDD 2012).

LDG places a vertex in the partition holding most of its already-seen
neighbours, discounted by how full each partition is:

    argmax_i  |N(v) ∩ V(Si)| · (1 − |V(Si)|/C)

The paper uses LDG twice: as a comparison system, and *inside Loom* as the
placement rule for edges that cannot match any motif (Sec. 4).  The shared
scoring function :func:`ldg_choose_ids` serves both callers;
:func:`ldg_choose` is its vertex-keyed twin for boundary code and tests.

This is the edge-stream variant (the paper notes LDG partitions either
vertex or edge streams): as each edge arrives it is recorded in a running
adjacency of interned ids, and any endpoint not yet placed is assigned
using its neighbours seen so far.  All neighbourhood overlaps are computed
in a single pass over the assignment vector
(:meth:`~repro.partitioning.state.PartitionState.neighbor_partition_counts`)
instead of one membership scan per partition.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.graph.labelled_graph import Vertex
from repro.graph.stream import EdgeEvent
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.state import PartitionState


def ldg_choose_ids(
    state: PartitionState,
    neighbor_ids: Iterable[int],
    restrict_to: Optional[List[int]] = None,
) -> int:
    """The partition LDG would pick for a vertex with these neighbour ids.

    Ties — including the cold-start case where no neighbour is placed
    anywhere — go to the least-loaded candidate, preserving balance.
    Partitions at capacity are excluded while any alternative remains.

    Overlap counts come from one
    :meth:`~repro.partitioning.state.PartitionState.neighbor_partition_counts`
    pass; the per-candidate residual and fullness arithmetic is inlined over
    the state's live size list (the expressions match
    ``residual_capacity``/``is_full`` exactly, which the golden assignment
    digests depend on).
    """
    sizes = state._sizes
    capacity = state.capacity
    candidates = restrict_to if restrict_to is not None else list(range(state.k))
    open_candidates = [i for i in candidates if sizes[i] < capacity]
    if open_candidates:
        candidates = open_candidates

    counts = state.neighbor_partition_counts(neighbor_ids)
    best = candidates[0]
    best_score = -1.0
    best_size = None
    for i in candidates:
        size = sizes[i]
        residual = 1.0 - size / capacity
        score = counts[i] * (residual if residual > 0.0 else 0.0)
        if score > best_score or (score == best_score and size < best_size):
            best, best_score, best_size = i, score, size
    return best


def ldg_choose(
    state: PartitionState,
    neighbors: Iterable[Vertex],
    restrict_to: Optional[List[int]] = None,
) -> int:
    """Vertex-keyed :func:`ldg_choose_ids` (interns nothing: unseen
    neighbours cannot be placed anywhere, so they simply score zero)."""
    id_of = state.interner.id_of
    ids = [vid for vid in map(id_of, neighbors) if vid is not None]
    return ldg_choose_ids(state, ids, restrict_to)


class LDGPartitioner(StreamingPartitioner):
    """LDG over an edge stream.

    ``ingest`` binds the state's live id map and assignment vector once and
    works on them directly — at streaming rates the per-edge win over going
    through the method API is roughly 2×.

    No running adjacency is kept: because assignments are permanent and a
    vertex is placed the moment its first edge arrives, the only neighbour
    a vertex can have at placement time is the other endpoint of that first
    edge.  Scoring over exactly that endpoint is therefore identical to the
    dict-of-sets bookkeeping the seed carried (the golden digests pin it)
    at O(V) instead of O(E) memory.  Loom's deferred-placement path is the
    one that needs real neighbourhoods; it keeps its own adjacency and
    calls :func:`ldg_choose_ids` with them.
    """

    name = "ldg"

    def __init__(self, state: PartitionState) -> None:
        super().__init__(state)
        self._ids = state.interner.id_map
        self._assignment = state.assignment_vector

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
        # u is placed first, so v's score can see u's fresh assignment —
        # adjacent stream edges cluster, which is the heuristic's intent.
        if assignment[uid] < 0:
            state.assign_id(uid, ldg_choose_ids(state, (vid,)))
        if assignment[vid] < 0:
            state.assign_id(vid, ldg_choose_ids(state, (uid,)))
