"""Frozen dict-based reference implementations (pre-interning seed code).

The interned-id refactor rewrote :class:`~repro.partitioning.state.PartitionState`
and the hot paths of every streaming partitioner onto flat int structures.
This module preserves the original ``Dict[Vertex, int]`` / ``Set[Vertex]``
implementations **verbatim** for one purpose: the parity suite
(``tests/test_parity.py``) asserts the refactored stack produces
*bit-identical* assignments on seeded streams.

Do not "improve" this module: its value is that it does not change.  It is
deliberately not exported from :mod:`repro.partitioning`.

One caveat keeps it honest rather than literal: the stream matcher was
*never* frozen here — the seed's parity design shares the live
:class:`~repro.core.matching.StreamMatcher` between both stacks so the
comparison isolates exactly the placement layer (state + LDG + auction).
When the matcher moved to interned ids, the thin glue in
:class:`LegacyLoomPartitioner` had to follow (ids are translated back to
vertex objects at the auction boundary via :class:`_VertexMatchView`); the
*decision* code — ``DictPartitionState``, ``legacy_ldg_choose``,
``LegacyEqualOpportunism`` — is untouched and still operates on vertex
objects exactly as the seed did.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.graph.labelled_graph import Edge, Vertex, normalize_edge
from repro.graph.stream import EdgeEvent
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.fennel import FENNEL_GAMMA, fennel_alpha
from repro.partitioning.hash_partitioner import stable_hash


class DictPartitionState:
    """The seed's :class:`PartitionState`: dict assignment + member sets."""

    def __init__(self, k: int, capacity: float) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.k = k
        self.capacity = float(capacity)
        self._assignment: Dict[Vertex, int] = {}
        self._members: List[Set[Vertex]] = [set() for _ in range(k)]

    @classmethod
    def for_graph(
        cls, k: int, expected_vertices: int, imbalance: float = 1.1
    ) -> "DictPartitionState":
        if expected_vertices < 1:
            raise ValueError("expected_vertices must be positive")
        return cls(k, math.ceil(imbalance * expected_vertices / k))

    def assign(self, v: Vertex, partition: int) -> None:
        if not 0 <= partition < self.k:
            raise IndexError(f"partition {partition} out of range [0, {self.k})")
        current = self._assignment.get(v)
        if current is not None:
            if current != partition:
                raise ValueError(
                    f"vertex {v!r} already in partition {current}; streaming assignments are permanent"
                )
            return
        self._assignment[v] = partition
        self._members[partition].add(v)

    def partition_of(self, v: Vertex) -> Optional[int]:
        return self._assignment.get(v)

    def is_assigned(self, v: Vertex) -> bool:
        return v in self._assignment

    def size(self, partition: int) -> int:
        return len(self._members[partition])

    def sizes(self) -> List[int]:
        return [len(m) for m in self._members]

    def members(self, partition: int) -> Set[Vertex]:
        return set(self._members[partition])

    def residual_capacity(self, partition: int) -> float:
        return max(0.0, 1.0 - len(self._members[partition]) / self.capacity)

    def is_full(self, partition: int) -> bool:
        return len(self._members[partition]) >= self.capacity

    def open_partitions(self) -> List[int]:
        return [i for i in range(self.k) if len(self._members[i]) < self.capacity]

    def min_size(self) -> int:
        return min(len(m) for m in self._members)

    def smallest_partition(self) -> int:
        sizes = self.sizes()
        return sizes.index(min(sizes))

    def count_in_partition(self, vertices: Iterable[Vertex], partition: int) -> int:
        members = self._members[partition]
        return sum(1 for v in vertices if v in members)

    def assignment(self) -> Dict[Vertex, int]:
        return dict(self._assignment)

    @property
    def num_assigned(self) -> int:
        return len(self._assignment)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._assignment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DictPartitionState k={self.k} C={self.capacity:g} sizes={self.sizes()}>"


def legacy_ldg_choose(
    state: DictPartitionState,
    neighbors: Iterable[Vertex],
    restrict_to: Optional[List[int]] = None,
) -> int:
    """The seed's ``ldg_choose``: k ``count_in_partition`` passes."""
    candidates = restrict_to if restrict_to is not None else list(range(state.k))
    open_candidates = [i for i in candidates if not state.is_full(i)]
    if open_candidates:
        candidates = open_candidates

    neighbor_list = list(neighbors)
    best = candidates[0]
    best_score = -1.0
    best_size = None
    for i in candidates:
        score = state.count_in_partition(neighbor_list, i) * state.residual_capacity(i)
        size = state.size(i)
        if score > best_score or (score == best_score and size < best_size):
            best, best_score, best_size = i, score, size
    return best


class LegacyLDGPartitioner(StreamingPartitioner):
    """The seed's LDG: object-keyed adjacency, per-partition overlap passes."""

    name = "ldg"

    def __init__(self, state: DictPartitionState) -> None:
        super().__init__(state)  # type: ignore[arg-type]
        self._adj: Dict[Vertex, Set[Vertex]] = {}

    def _record(self, u: Vertex, v: Vertex) -> None:
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    def _place(self, v: Vertex) -> None:
        if self.state.is_assigned(v):
            return
        self.state.assign(v, legacy_ldg_choose(self.state, self._adj.get(v, ())))

    def ingest(self, event: EdgeEvent) -> None:
        self._record(event.u, event.v)
        self._place(event.u)
        self._place(event.v)


class LegacyFennelPartitioner(StreamingPartitioner):
    """The seed's Fennel: object-keyed adjacency, per-partition passes."""

    name = "fennel"

    def __init__(
        self,
        state: DictPartitionState,
        expected_vertices: int,
        expected_edges: int,
        gamma: float = FENNEL_GAMMA,
        alpha: Optional[float] = None,
    ) -> None:
        super().__init__(state)  # type: ignore[arg-type]
        self.gamma = gamma
        self.alpha = (
            alpha
            if alpha is not None
            else fennel_alpha(state.k, expected_vertices, expected_edges, gamma)
        )
        self._adj: Dict[Vertex, Set[Vertex]] = {}

    def _marginal_cost(self, size: int) -> float:
        return self.alpha * ((size + 1) ** self.gamma - size**self.gamma)

    def _record(self, u: Vertex, v: Vertex) -> None:
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    def _place(self, v: Vertex) -> None:
        if self.state.is_assigned(v):
            return
        neighbors = self._adj.get(v, set())
        candidates = self.state.open_partitions() or list(range(self.state.k))
        best = candidates[0]
        best_score = -math.inf
        best_size = None
        for i in candidates:
            size = self.state.size(i)
            score = self.state.count_in_partition(neighbors, i) - self._marginal_cost(size)
            if score > best_score or (score == best_score and size < best_size):
                best, best_score, best_size = i, score, size
        self.state.assign(v, best)

    def ingest(self, event: EdgeEvent) -> None:
        self._record(event.u, event.v)
        self._place(event.u)
        self._place(event.v)


class LegacyHashPartitioner(StreamingPartitioner):
    """The seed's Hash partitioner (identical hash, dict-backed state)."""

    name = "hash"

    def __init__(self, state: DictPartitionState, seed: int = 0) -> None:
        super().__init__(state)  # type: ignore[arg-type]
        self.seed = seed

    def _place(self, v: Vertex) -> None:
        if not self.state.is_assigned(v):
            self.state.assign(v, stable_hash(v, self.seed) % self.state.k)

    def ingest(self, event: EdgeEvent) -> None:
        self._place(event.u)
        self._place(event.v)


class LegacyEqualOpportunism:
    """The seed's equal-opportunism auction over a dict-backed state."""

    def __init__(
        self,
        state: DictPartitionState,
        alpha: float = 2.0 / 3.0,
        balance_cap: float = 1.1,
        rationing_enabled: bool = True,
        support_weighting: bool = True,
        neighbor_fn: Optional[Callable[[Vertex], Iterable[Vertex]]] = None,
        vertex_order: Optional[Callable[[Vertex], object]] = None,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if balance_cap < 1.0:
            raise ValueError("balance_cap must be at least 1")
        self.state = state
        self.alpha = alpha
        self.balance_cap = balance_cap
        self.rationing_enabled = rationing_enabled
        self.support_weighting = support_weighting
        self.neighbor_fn = neighbor_fn
        # The seed assigned winning-cluster vertices in repr() order — an
        # ordering that only matters when the winner fills mid-cluster and
        # the tail spills, and which is precisely the "allocate's vertex
        # order" instance of the repr-nondeterminism bug the id refactor
        # fixed.  The default stays repr (seed semantics); the legacy Loom
        # glue passes interner order so spill tie-breaks match the live
        # stack bit for bit.
        self.vertex_order = vertex_order if vertex_order is not None else repr

    def ration(self, partition: int) -> float:
        if not self.rationing_enabled:
            return 1.0
        size = self.state.size(partition)
        if self.state.is_full(partition):
            return 0.0
        smallest = max(self.state.min_size(), 1)
        if size <= smallest:
            return 1.0
        return min(1.0, self.alpha * smallest / size)

    def _overlap_counts(self, match) -> List[int]:
        counts = [0] * self.state.k
        partition_of = self.state.partition_of
        for v in match.vertices:
            p = partition_of(v)
            if p is not None:
                counts[p] += 1
        if self.neighbor_fn is not None:
            seen: Set[Vertex] = set()
            for v in match.vertices:
                for w in self.neighbor_fn(v):
                    if w not in match.vertices and w not in seen:
                        seen.add(w)
                        p = partition_of(w)
                        if p is not None:
                            counts[p] += 1
        return counts

    def allocate(self, matches: Sequence, fallback_chooser=None):
        from repro.core.allocation import AllocationDecision

        if not matches:
            raise ValueError("allocate requires at least one match")

        total = len(matches)
        overlaps = [self._overlap_counts(m) for m in matches]
        supports = [
            (m.support if self.support_weighting else 1.0) for m in matches
        ]
        residuals = [self.state.residual_capacity(i) for i in range(self.state.k)]
        prefix_lengths: List[int] = []
        bids: List[float] = []
        for i in range(self.state.k):
            n_i = math.ceil(self.ration(i) * total)
            prefix_lengths.append(n_i)
            bids.append(
                sum(overlaps[j][i] * residuals[i] * supports[j] for j in range(n_i))
            )

        winner = self._pick_winner(bids)
        fallback = bids[winner] <= 0.0
        if fallback:
            cluster_vertices: Set[Vertex] = set()
            for m in matches:
                cluster_vertices |= m.vertices
            if fallback_chooser is not None:
                winner = fallback_chooser(cluster_vertices)
            else:
                open_parts = self.state.open_partitions() or list(range(self.state.k))
                winner = min(open_parts, key=lambda i: (self.state.size(i), i))

        take = max(1, prefix_lengths[winner])
        assigned = list(matches[:take])
        edges: Set[Edge] = set()
        vertices: Set[Vertex] = set()
        for m in assigned:
            edges |= m.edges
            vertices |= m.vertices
        for v in sorted(vertices, key=self.vertex_order):
            if self.state.is_assigned(v):
                continue
            if self.state.is_full(winner):
                spill_to = self.state.open_partitions()
                target = min(spill_to, key=lambda i: (self.state.size(i), i)) if spill_to else winner
                self.state.assign(v, target)
            else:
                self.state.assign(v, winner)
        return AllocationDecision(
            winner=winner,
            assigned_matches=assigned,
            assigned_edges=edges,
            assigned_vertices=vertices,
            bids=bids,
            fallback=fallback,
        )

    def _pick_winner(self, bids: List[float]) -> int:
        best = 0
        best_key = None
        for i, b in enumerate(bids):
            key = (-b, self.state.size(i), i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best


class _VertexMatchView:
    """A vertex-object view of an id-based match, for the frozen auction.

    :class:`LegacyEqualOpportunism` reads ``vertices`` (objects), ``edges``
    (object pairs) and ``support`` — exactly the seed's :class:`Match`
    surface.  ``ekeys`` keeps the packed keys so the glue can hand the
    winning cluster back to the id-based window for removal.  Matches now
    carry compiled plan state ids and denormalised support, so the view
    copies the support value straight off the match.
    """

    __slots__ = ("vertices", "edges", "ekeys", "support")

    def __init__(self, match, matcher) -> None:
        self.support = match.support
        self.ekeys = match.edges
        self.vertices = frozenset(matcher.resolve_vertices(match))
        self.edges = frozenset(
            normalize_edge(u, v) for u, v in matcher.resolve_edges(match)
        )


class LegacyLoomPartitioner(StreamingPartitioner):
    """The seed's Loom: dict adjacency + dict state + legacy auction.

    Workload analysis (trie, motif index, stream matcher) is shared with the
    live implementation — the parity design of the seed — so parity between
    this class and :class:`repro.core.loom.LoomPartitioner` isolates exactly
    the state/placement rewrite.  The matcher now speaks interned ids, so
    this glue resolves them back to vertex objects at the auction boundary;
    the placement decisions themselves are the seed's, verbatim.
    """

    name = "loom"

    def __init__(
        self,
        state: DictPartitionState,
        workload,
        window_size: int = 10_000,
        support_threshold: float = 0.4,
        prime: Optional[int] = None,
        seed: int = 0,
        alpha: float = 2.0 / 3.0,
        balance_cap: float = 1.1,
        max_matches_per_vertex: int = 64,
        rationing_enabled: bool = True,
        support_weighting: bool = True,
        neighbor_aware_bids: bool = False,
    ) -> None:
        from repro.core.matching import StreamMatcher
        from repro.core.motifs import MotifIndex
        from repro.core.signature import DEFAULT_PRIME, SignatureScheme
        from repro.core.tpstry import TPSTry
        from repro.graph.interning import VertexInterner

        super().__init__(state)  # type: ignore[arg-type]
        self.workload = workload
        self.scheme = SignatureScheme(
            workload.label_set(), p=prime if prime is not None else DEFAULT_PRIME, seed=seed
        )
        self.trie = TPSTry.from_workload(workload, self.scheme)
        self.index = MotifIndex(self.trie, support_threshold)
        # The shared matcher is id-based; intern in _record (every event,
        # both endpoints, arrival order) exactly like the live Loom does
        # through its state, so both matchers see identical ids and make
        # identical integer tie-breaks.
        self._interner = VertexInterner()
        self.matcher = StreamMatcher(
            self.index,
            window_size,
            max_matches_per_vertex=max_matches_per_vertex,
            interner=self._interner,
        )
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self.allocator = LegacyEqualOpportunism(
            state,
            alpha=alpha,
            balance_cap=balance_cap,
            rationing_enabled=rationing_enabled,
            support_weighting=support_weighting,
            neighbor_fn=(lambda v: self._adj.get(v, ())) if neighbor_aware_bids else None,
            # Spill tie-breaks in interner order, matching the live
            # allocator's sorted-id assignment loop exactly (see
            # LegacyEqualOpportunism.__init__).
            vertex_order=self._interner.id_of,
        )

    def ingest(self, event: EdgeEvent) -> None:
        self._record(event.u, event.v)
        if not self.matcher.offer(event):
            self._ldg_place(event.u)
            self._ldg_place(event.v)
            return
        while self.matcher.needs_eviction():
            self._evict_once()

    def finalize(self) -> None:
        while self.matcher.pending() > 0:
            self._evict_once()

    def _record(self, u: Vertex, v: Vertex) -> None:
        self._interner.intern(u)
        self._interner.intern(v)
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    def _ldg_place(self, v: Vertex) -> None:
        if self.state.is_assigned(v):
            return
        vid = self.matcher.interner.id_of(v)
        if vid is not None and self.matcher.window.has_vertex_id(vid):
            return
        self.state.assign(v, legacy_ldg_choose(self.state, self._adj.get(v, ())))

    def _ldg_cluster_choice(self, cluster_vertices) -> int:
        neighborhood = set()
        for v in cluster_vertices:
            neighborhood |= self._adj.get(v, set())
        neighborhood -= set(cluster_vertices)
        return legacy_ldg_choose(self.state, neighborhood)

    def _evict_once(self) -> None:
        eviction = self.matcher.next_eviction()
        if eviction.matches:
            views = [_VertexMatchView(m, self.matcher) for m in eviction.matches]
            decision = self.allocator.allocate(
                views, fallback_chooser=self._ldg_cluster_choice
            )
            ekeys = set()
            for view in decision.assigned_matches:
                ekeys.update(view.ekeys)
            self.matcher.remove_cluster(ekeys)
        else:
            for v in (eviction.event.u, eviction.event.v):
                if not self.state.is_assigned(v):
                    self.state.assign(v, legacy_ldg_choose(self.state, self._adj.get(v, ())))
            self.matcher.remove_cluster({eviction.ekey})
