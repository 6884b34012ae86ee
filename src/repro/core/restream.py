"""Restreaming repartitioning — the paper's Sec. 6 future-work direction.

Loom's partitionings are workload sensitive, which makes them *vulnerable to
workload change over time*; the paper names two remedies: integration with a
workload-aware repartitioner, or "some form of restreaming approach [11]"
(Leopard; also Nishimura & Ugander's restreaming partitioning).  This module
implements the restreaming remedy on top of the existing machinery:

* :func:`restream` replays a graph stream through a *fresh* Loom
  (:class:`_StickyLoom`) whose LDG placements are biased toward the
  previous assignment by a stickiness weight, trading migration volume
  against ipt improvement, so a drifted workload can be re-optimised
  without starting from scratch.  Stickiness biases the LDG placement
  only: the motif clusters' auction is Eqs. 1–3 unbiased, so a vertex a
  cluster takes goes where its workload signal says;
* :func:`migration_volume` quantifies how many vertices moved — the cost a
  production system would pay in data shipping.

Unlike the strict one-pass model, restreaming may *move* vertices, so it
works on a fresh :class:`~repro.partitioning.state.PartitionState` and
reports the delta against the old one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core.loom import LoomPartitioner
from repro.graph.labelled_graph import Vertex
from repro.graph.stream import EdgeEvent
from repro.partitioning.ldg import ldg_choose_ids
from repro.partitioning.state import PartitionState
from repro.query.workload import Workload


@dataclass
class RestreamResult:
    """Outcome of one restreaming pass.

    ``kept_vertices`` and ``moved_vertices`` count only vertices assigned
    in *both* states; a vertex of the previous state that the new pass
    never placed (e.g. the replayed stream no longer contains it) is a
    ``dropped_vertices`` entry, not a "kept" one — counting it as kept
    understated migration fractions.
    """

    state: PartitionState
    moved_vertices: int
    kept_vertices: int
    dropped_vertices: int = 0

    @property
    def migration_fraction(self) -> float:
        """Fraction of co-assigned vertices that changed partition."""
        total = self.moved_vertices + self.kept_vertices
        return self.moved_vertices / total if total else 0.0


def migration_stats(old: PartitionState, new: PartitionState) -> Tuple[int, int, int]:
    """``(moved, kept, dropped)`` between two assignments.

    ``moved``/``kept`` are counted over vertices assigned in both states;
    ``dropped`` counts vertices assigned in ``old`` but absent from
    ``new``.  Vertices first seen by ``new`` appear in none of the three.
    """
    moved = kept = dropped = 0
    partition_of = new.partition_of
    for v, p in old.assignment().items():
        q = partition_of(v)
        if q is None:
            dropped += 1
        elif q == p:
            kept += 1
        else:
            moved += 1
    return moved, kept, dropped


def migration_volume(old: PartitionState, new: PartitionState) -> int:
    """Number of vertices whose partition differs between two states
    (co-assigned vertices only — the data a production system would ship)."""
    return migration_stats(old, new)[0]


class _StickyLoom(LoomPartitioner):
    """Loom whose LDG placement is biased toward a previous assignment.
    Only that choice differs: which vertices are placed at once, parked or
    left to the window is the base class's, and the cluster auction is the
    base class's too — stickiness never enters a bid.

    Stickiness is implemented as phantom neighbours: when LDG places a
    vertex, its previous partition receives ``stickiness`` extra neighbour
    votes, so ties and weak preferences resolve toward staying put while
    strong neighbourhood signals can still move vertices.
    """

    name = "loom-restream"

    def __init__(
        self,
        state: PartitionState,
        workload: Workload,
        previous: Dict[Vertex, int],  # detlint: disable=INT-boundary (prior-run ids aren't portable)
        stickiness: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(state, workload, **kwargs)
        if stickiness < 0:
            raise ValueError("stickiness must be non-negative")
        self._previous = previous
        self._stickiness = stickiness

    def _place_now(self, v: Vertex, vid: int, neighbor_ids: Iterable[int]) -> None:
        prev = self._previous.get(v)
        if prev is None or self.state.is_full(prev):
            super()._place_now(v, vid, neighbor_ids)
            return
        choice = ldg_choose_ids(self.state, neighbor_ids)
        counts = self.state.neighbor_partition_counts(neighbor_ids)
        placed = counts[choice]
        anchored = counts[prev] + self._stickiness
        if anchored * self.state.residual_capacity(prev) >= placed * self.state.residual_capacity(choice):
            choice = prev
        self.state.assign_id(vid, choice)


def restream(
    events: Sequence[EdgeEvent],
    workload: Workload,
    previous: PartitionState,
    k: Optional[int] = None,
    capacity: Optional[float] = None,
    stickiness: int = 1,
    window_size: int = 1_000,
    seed: int = 0,
    loom_kwargs: Optional[Dict] = None,
) -> RestreamResult:
    """Replay ``events`` through a sticky Loom seeded by ``previous``.

    Use after workload drift: build the new workload's trie, keep vertices
    where they are unless the new motif structure argues otherwise.
    """
    k = k if k is not None else previous.k
    capacity = capacity if capacity is not None else previous.capacity
    state = PartitionState(k, capacity)
    loom = _StickyLoom(
        state,
        workload,
        previous.assignment(),
        stickiness=stickiness,
        window_size=window_size,
        seed=seed,
        **(loom_kwargs or {}),
    )
    loom.ingest_all(events)
    moved, kept, dropped = migration_stats(previous, state)
    return RestreamResult(
        state=state,
        moved_vertices=moved,
        kept_vertices=kept,
        dropped_vertices=dropped,
    )


def restream_until_stable(
    events: Sequence[EdgeEvent],
    workload: Workload,
    initial: PartitionState,
    max_passes: int = 3,
    min_improvement: float = 0.02,
    executor=None,
    **kwargs,
) -> RestreamResult:
    """Iterated restreaming (Nishimura & Ugander style): keep replaying
    until ipt stops improving by ``min_improvement`` (relative) or
    ``max_passes`` is hit.  Requires an ``executor`` to measure ipt.
    """
    if executor is None:
        raise ValueError("restream_until_stable needs a WorkloadExecutor to measure ipt")
    if max_passes < 1:
        raise ValueError("max_passes must be at least 1")
    current = initial
    best_ipt = executor.execute(current).weighted_ipt
    result = RestreamResult(
        state=current,
        moved_vertices=0,
        kept_vertices=current.num_assigned,
        dropped_vertices=0,
    )
    for _ in range(max_passes):
        candidate = restream(events, workload, current, **kwargs)
        ipt = executor.execute(candidate.state).weighted_ipt
        if best_ipt > 0 and (best_ipt - ipt) / best_ipt < min_improvement:
            break
        if ipt <= best_ipt:
            best_ipt = ipt
            result = candidate
            current = candidate.state
    return result
