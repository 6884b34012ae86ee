"""Vertex-centric partition state (paper Sec. 1.3), array-backed.

A k-way partitioning is a disjoint family of vertex sets.  In the strict
streaming model an assignment is permanent — there is no refinement step —
so :class:`PartitionState` exposes ``assign`` but no "move" operation.

The capacity constraint ``C`` is the per-partition vertex budget used by
LDG's residual-capacity weight and by Loom's bids (``1 − |V(Si)|/C``); it is
conventionally ``imbalance · n / k`` for an expected vertex count ``n``.

Internally the state runs on dense integer ids from a
:class:`~repro.graph.interning.VertexInterner`:

* an **assignment vector** (``array('i')``, ``-1`` = unassigned) indexed by
  vertex id,
* **per-partition counts** (a plain list of ints).

Membership is read off the assignment vector; nothing else records it.

The historical ``Vertex``-keyed API (``assign``, ``partition_of``,
``count_in_partition``, …) is preserved as a thin translation layer; the
hot paths of the streaming partitioners use the ``*_id`` twins and
:meth:`neighbor_partition_counts` to stay on flat int structures.  Inside
this package the partitioners additionally bind the live
:attr:`assignment_vector` / ``_sizes`` references once and read them
directly in their inner loops — per-edge method dispatch is the dominant
cost at streaming rates.  Outside code must stick to the public methods.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.graph.interning import VertexInterner
from repro.graph.labelled_graph import Vertex

UNASSIGNED = -1
"""Sentinel in the assignment vector for not-yet-placed ids."""


class PartitionState:
    """Mutable state of a k-way vertex partitioning under construction."""

    __slots__ = ("k", "capacity", "interner", "_assignment", "_sizes")

    def __init__(
        self,
        k: int,
        capacity: float,
        interner: Optional[VertexInterner] = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.k = k
        self.capacity = float(capacity)
        #: The vertex ↔ id bijection.  Pass a shared interner when several
        #: states (e.g. the systems of one comparison) should agree on ids.
        self.interner = interner if interner is not None else VertexInterner()
        # A plain list (not array('i')): indexed reads in interpreted inner
        # loops are what the hot paths do most, and list indexing returns
        # cached small ints without unboxing.
        self._assignment: List[int] = []
        self._sizes: List[int] = [0] * k

    @classmethod
    def for_graph(
        cls,
        k: int,
        expected_vertices: int,
        imbalance: float = 1.1,
    ) -> "PartitionState":
        """Capacity = ``imbalance · n / k``, the convention used throughout.

        This classmethod owns that formula: the CLI, the harness and the
        benchmarks all size their states here, so they can never drift
        apart.  ``imbalance`` is the slack b = ν, so it is at least 1: below
        that the partitions together could not hold the graph.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        if imbalance < 1:
            raise ValueError("imbalance must be at least 1")
        if expected_vertices < 1:
            raise ValueError("expected_vertices must be positive")
        return cls(k, math.ceil(imbalance * expected_vertices / k))

    # ------------------------------------------------------------------
    # Interning boundary
    # ------------------------------------------------------------------
    @property
    def assignment_vector(self) -> List[int]:
        """The *live* id → partition list (``-1`` = unassigned).

        Exposed so in-package hot loops can bind it once and index it
        directly; it grows in place (identity is stable).  Treat it as
        read-only — all mutation goes through :meth:`assign_id`.
        """
        return self._assignment

    def intern(self, v: Vertex) -> int:
        """The dense id of ``v``, growing the assignment vector as needed.

        Hot-path callers intern each endpoint once per event and work with
        ids from then on.
        """
        vid = self.interner.intern(v)
        assignment = self._assignment
        if vid >= len(assignment):
            assignment.extend([UNASSIGNED] * (vid + 1 - len(assignment)))
        return vid

    def intern_many(self, vertices: Iterable[Vertex]) -> List[int]:
        """Bulk :meth:`intern`, preserving input order."""
        return [self.intern(v) for v in vertices]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def assign(self, v: Vertex, partition: int) -> None:
        """Permanently place ``v`` in ``partition``.

        Re-assigning to the *same* partition is a harmless no-op (motif
        match clusters overlap, so Loom naturally re-assigns); moving an
        already-placed vertex raises — streaming partitioners never refine.
        """
        self.assign_id(self.intern(v), partition)

    def assign_id(self, vid: int, partition: int) -> None:
        """Id-keyed :meth:`assign`; ``vid`` must be an id of the interner.

        Ids minted through the shared :attr:`interner` directly (e.g. by a
        matcher built with ``interner=state.interner``) may outrun the
        assignment vector, which :meth:`intern` grows; grow it here too so
        every interner id is assignable.  Unknown ids still raise.
        """
        if not 0 <= partition < self.k:
            raise IndexError(f"partition {partition} out of range [0, {self.k})")
        assignment = self._assignment
        if vid >= len(assignment):
            if not 0 <= vid < len(self.interner):
                raise IndexError(f"vertex id {vid} was never interned")
            assignment.extend([UNASSIGNED] * (vid + 1 - len(assignment)))
        current = assignment[vid]
        if current != UNASSIGNED:
            if current != partition:
                raise ValueError(
                    f"vertex {self.interner.vertex(vid)!r} already in partition "
                    f"{current}; streaming assignments are permanent"
                )
            return
        assignment[vid] = partition
        self._sizes[partition] += 1

    # ------------------------------------------------------------------
    # Id-keyed queries (hot paths)
    # ------------------------------------------------------------------
    def partition_of_id(self, vid: int) -> int:
        """The partition of id ``vid``, or :data:`UNASSIGNED` (-1)."""
        assignment = self._assignment
        if 0 <= vid < len(assignment):
            return assignment[vid]
        return UNASSIGNED

    def is_assigned_id(self, vid: int) -> bool:
        return self.partition_of_id(vid) != UNASSIGNED

    def in_partition_id(self, vid: int, partition: int) -> bool:
        """Is id ``vid`` in ``partition``?"""
        return self.partition_of_id(vid) == partition

    def neighbor_partition_counts(self, ids: Iterable[int]) -> List[int]:
        """``N(Si, ·)`` for every partition in one pass over ``ids``.

        This is the inner loop of LDG, Fennel and the equal-opportunism
        bids: the dict-based implementation recomputed the overlap per
        partition (k passes over the neighbourhood); here one scan of the
        assignment vector fills all k counters.
        """
        counts = [0] * self.k
        assignment = self._assignment
        n = len(assignment)
        for vid in ids:
            if vid < n:
                p = assignment[vid]
                if p >= 0:
                    counts[p] += 1
        return counts

    def count_ids_in_partition(self, ids: Iterable[int], partition: int) -> int:
        """Id-keyed :meth:`count_in_partition`."""
        return sum(1 for vid in ids if self.partition_of_id(vid) == partition)

    # ------------------------------------------------------------------
    # Vertex-keyed queries (public boundary)
    # ------------------------------------------------------------------
    def partition_of(self, v: Vertex) -> Optional[int]:
        vid = self.interner.id_of(v)
        if vid is None:
            return None
        p = self.partition_of_id(vid)
        return None if p == UNASSIGNED else p

    def is_assigned(self, v: Vertex) -> bool:
        return self.partition_of(v) is not None

    def size(self, partition: int) -> int:
        return self._sizes[partition]

    def sizes(self) -> List[int]:
        return list(self._sizes)

    def members(self, partition: int) -> Set[Vertex]:
        """A *copy* of a partition's vertex set."""
        if not 0 <= partition < self.k:
            raise IndexError(f"partition {partition} out of range [0, {self.k})")
        vertex = self.interner.vertex
        assignment = self._assignment
        return {vertex(vid) for vid in range(len(assignment)) if assignment[vid] == partition}

    def residual_capacity(self, partition: int) -> float:
        """LDG's ``r(Si) = 1 − |V(Si)|/C`` (clamped at 0)."""
        return max(0.0, 1.0 - self._sizes[partition] / self.capacity)

    def is_full(self, partition: int) -> bool:
        return self._sizes[partition] >= self.capacity

    def open_partitions(self) -> List[int]:
        """Partitions with remaining capacity (never empty in practice:
        total capacity ``k·C`` exceeds the vertex count by the slack)."""
        capacity = self.capacity
        return [i for i in range(self.k) if self._sizes[i] < capacity]

    def min_size(self) -> int:
        return min(self._sizes)

    def smallest_partition(self) -> int:
        """Index of the least-loaded partition (lowest index wins ties)."""
        sizes = self._sizes
        return sizes.index(min(sizes))

    def count_in_partition(self, vertices: Iterable[Vertex], partition: int) -> int:
        """``N(Si, ·)``: how many of ``vertices`` are already in ``partition``."""
        return sum(1 for v in vertices if self.partition_of(v) == partition)

    def assignment(self) -> Dict[Vertex, int]:
        """A *copy* of the full vertex → partition map."""
        vertex = self.interner.vertex
        return {
            vertex(vid): p
            for vid, p in enumerate(self._assignment)
            if p != UNASSIGNED
        }

    # ------------------------------------------------------------------
    # Export boundary
    # ------------------------------------------------------------------
    def export_ids(self) -> List[Tuple[int, int]]:
        """All placed ``(vertex_id, partition)`` pairs, in id order.

        Id order is first-seen order, so for a fixed stream the export is
        deterministic.
        """
        return [
            (vid, p) for vid, p in enumerate(self._assignment) if p != UNASSIGNED
        ]

    def export_assignment(self) -> List[Tuple[Vertex, int]]:
        """All placed ``(vertex, partition)`` pairs, in id order.

        The vertex-keyed twin of :meth:`export_ids`, for comparing or
        digesting assignments across states whose interners differ — local
        ids mean nothing outside one state, vertex objects are universal.
        """
        vertex = self.interner.vertex
        return [
            (vertex(vid), p)
            for vid, p in enumerate(self._assignment)
            if p != UNASSIGNED
        ]

    @property
    def num_assigned(self) -> int:
        return sum(self._sizes)

    def __contains__(self, v: Vertex) -> bool:
        return self.is_assigned(v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PartitionState k={self.k} C={self.capacity:g} sizes={self.sizes()}>"
