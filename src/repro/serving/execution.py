"""Shard-local pattern-match execution: one step engine for every deployment.

The embedding DFS runs as :func:`execute_step` against a
:class:`ShardView` — a shard server's view of its
:class:`repro.serving.stores.ShardStores`: only the adjacency of its *own*
partitions' members is present, so the DFS runs as far as local knowledge
reaches and **hands off** the rest as :class:`Continuation` records — the
wire-level "hop" of the live runtime, dispatched by the driver to the
shard that owns the next expansion vertex.  The in-process engine runs one
shard that owns every partition: every edge is decidable there, so its
DFS never emits a continuation.

The contract that makes the distributed execution bit-match the
single-shard one (tested in ``tests/test_live_serving.py``):
``execute_step`` visits candidates in one fixed order (sorted adjacency of
the first anchor), charges ``hops``/``border_expansions`` with one
arithmetic, and emits its output as an *ordered* list of segments —
literal results interleaved with continuations at the precise DFS
positions where the handed-off subtrees' results belong.  Splicing
resolved continuations back in order (:func:`splice_segments`) therefore
reassembles the exact embedding tuple, hop total and border-expansion
count of a one-shard enumeration, as a :class:`RootResult`.

A continuation is emitted in exactly two situations:

* **expansion handoff** — the next slot's first anchor vertex lives in a
  partition this view does not own, so the whole subtree moves to the
  owner (``pending is None``);
* **validation handoff** — a candidate generated locally is remote *and*
  one of its non-primary anchor edges connects two vertices that are both
  remote, which no local index can decide; the candidate, the index of
  the first undecided anchor and the crossings counted so far travel to
  the candidate's owner (``pending`` set), which finishes validation and
  continues the DFS from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Slot sentinel in a partial mapping.
UNMAPPED = -1


@dataclass(frozen=True)
class RootResult:
    """Everything one ``(query, root)`` request returns — the cached unit."""

    query: str
    root: int
    #: Complete embeddings, each a tuple of vertex ids in plan-slot order.
    embeddings: Tuple[Tuple[int, ...], ...]
    #: Border crossings inside the returned embeddings (the ipt share).
    hops: int
    #: Search steps that followed a border edge while generating candidates,
    #: including ones that never completed an embedding.
    border_expansions: int

    @property
    def num_embeddings(self) -> int:
        return len(self.embeddings)


class CompiledPlan:
    """One query lowered onto interned ids — small enough to travel.

    The wire-friendly core of the engine's per-query compilation: label ids
    per plan slot, earlier-slot anchors per slot, the cache-invalidation
    radius (``|Eq|``) and the plan signature (root/slot identity — when it
    changes, cached entries keyed under the old root meaning are invalid).
    """

    __slots__ = ("name", "label_ids", "anchors", "radius", "signature")

    def __init__(
        self,
        name: str,
        label_ids: Sequence[int],
        anchors: Sequence[Sequence[int]],
        radius: int,
        signature: Tuple,
    ) -> None:
        self.name = name
        self.label_ids: Tuple[int, ...] = tuple(label_ids)
        self.anchors: Tuple[Tuple[int, ...], ...] = tuple(tuple(a) for a in anchors)
        self.radius = radius
        self.signature = tuple(signature)

    @property
    def num_slots(self) -> int:
        return len(self.label_ids)

    # Compact tuple pickling: plans ride inside every request/continuation.
    def __reduce__(self):
        return (
            CompiledPlan,
            (self.name, self.label_ids, self.anchors, self.radius, self.signature),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompiledPlan)
            and self.name == other.name
            and self.label_ids == other.label_ids
            and self.anchors == other.anchors
            and self.radius == other.radius
            and self.signature == other.signature
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledPlan {self.name!r} slots={self.num_slots} radius={self.radius}>"


class Continuation:
    """A handed-off DFS subtree: everything the owning shard needs to resume.

    ``mapping``/``parts`` are the partial embedding and the partitions of
    its mapped slots (carried explicitly — the receiving shard has no
    assignment knowledge beyond its own members and ghosts).  When
    ``pending_cand`` is set this is a validation handoff: ``anchor_index``
    is the first anchor of slot ``depth`` still unchecked and
    ``pending_added`` the crossings already counted for this candidate.
    ``target_partition`` routes the message: the driver dispatches to the
    shard owning it.
    """

    __slots__ = (
        "depth",
        "mapping",
        "parts",
        "crossings",
        "target_partition",
        "pending_cand",
        "pending_part",
        "anchor_index",
        "pending_added",
    )

    def __init__(
        self,
        depth: int,
        mapping: Tuple[int, ...],
        parts: Tuple[int, ...],
        crossings: int,
        target_partition: int,
        pending_cand: Optional[int] = None,
        pending_part: int = UNMAPPED,
        anchor_index: int = 0,
        pending_added: int = 0,
    ) -> None:
        self.depth = depth
        self.mapping = mapping
        self.parts = parts
        self.crossings = crossings
        self.target_partition = target_partition
        self.pending_cand = pending_cand
        self.pending_part = pending_part
        self.anchor_index = anchor_index
        self.pending_added = pending_added

    def __reduce__(self):
        return (
            Continuation,
            (
                self.depth,
                self.mapping,
                self.parts,
                self.crossings,
                self.target_partition,
                self.pending_cand,
                self.pending_part,
                self.anchor_index,
                self.pending_added,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "validate" if self.pending_cand is not None else "expand"
        return f"<Continuation {kind} depth={self.depth} -> p{self.target_partition}>"


class LiteralSegment:
    """A contiguous locally-enumerated stretch of the DFS output."""

    __slots__ = ("embeddings", "hops", "border_expansions")

    def __init__(self) -> None:
        self.embeddings: List[Tuple[int, ...]] = []
        self.hops = 0
        self.border_expansions = 0

    def is_empty(self) -> bool:
        return not self.embeddings and self.hops == 0 and self.border_expansions == 0

    def __reduce__(self):
        return (_rebuild_literal, (self.embeddings, self.hops, self.border_expansions))


def _rebuild_literal(embeddings, hops, border):
    seg = LiteralSegment()
    seg.embeddings = embeddings
    seg.hops = hops
    seg.border_expansions = border
    return seg


#: One step's output: literals and continuations, in DFS order.
Segment = "LiteralSegment | Continuation"


class ShardView:
    """A shard server's view over its :class:`~repro.serving.stores.ShardStores`.

    ``has_edge`` answers definitively whenever either endpoint is a local
    member (a member's adjacency is complete) and returns ``None`` — *not
    locally decidable* — when both are remote; ``owns`` is partition
    ownership.  ``partition_of``/``label_of`` cover members and ghosts,
    which is exactly the set ``execute_step`` ever asks about: candidates
    are neighbours of a local member, so their metadata arrived with the
    edge that made them adjacent.
    """

    __slots__ = ("neighbors", "label_of", "partition_of", "owns", "has_edge")

    def __init__(self, stores) -> None:
        # Bound lookups, not methods: these run once per DFS candidate.
        self.neighbors = stores._adj.__getitem__
        self.label_of = stores._label_of
        self.partition_of = stores._partition_of.__getitem__
        self.owns = stores.owns_partition
        self.has_edge = stores.has_edge_local


def execute_step(
    view,
    plan: CompiledPlan,
    depth: int,
    mapping: Sequence[int],
    parts: Sequence[int],
    crossings: int,
    pending: Optional[Tuple[int, int, int, int]] = None,
) -> List[object]:
    """Run the embedding DFS from ``depth`` as far as ``view`` can see.

    ``mapping``/``parts`` hold the vertex id and partition of every slot
    below ``depth`` (:data:`UNMAPPED` above it).  ``pending``, when given,
    is ``(cand, cand_part, anchor_index, added)`` — resume validating that
    candidate for slot ``depth`` at its owner before descending.

    Returns the ordered segment list described in the module docstring.
    """
    label_ids = plan.label_ids
    anchors = plan.anchors
    total = len(label_ids)
    mapping = list(mapping)
    parts = list(parts)
    used = {v for v in mapping if v != UNMAPPED}
    segments: List[object] = []
    current = LiteralSegment()

    neighbors = view.neighbors
    label_of = view.label_of
    partition_of = view.partition_of
    has_edge = view.has_edge
    owns = view.owns

    def flush() -> None:
        nonlocal current
        if not current.is_empty():
            segments.append(current)
            current = LiteralSegment()

    def hand_off(depth_: int, crossings_: int, target: int, pend=None) -> None:
        flush()
        if pend is None:
            segments.append(Continuation(depth_, tuple(mapping), tuple(parts), crossings_, target))
        else:
            cand, cand_part, anchor_index, added = pend
            segments.append(
                Continuation(
                    depth_,
                    tuple(mapping),
                    tuple(parts),
                    crossings_,
                    target,
                    pending_cand=cand,
                    pending_part=cand_part,
                    anchor_index=anchor_index,
                    pending_added=added,
                )
            )

    def descend(depth_: int, cand: int, cand_part: int, new_crossings: int) -> None:
        mapping[depth_] = cand
        parts[depth_] = cand_part
        used.add(cand)
        backtrack(depth_ + 1, new_crossings)
        used.discard(cand)
        mapping[depth_] = UNMAPPED
        parts[depth_] = UNMAPPED

    def backtrack(depth_: int, crossings_: int) -> None:
        if depth_ == total:
            current.embeddings.append(tuple(mapping))
            current.hops += crossings_
            return
        slot_anchors = anchors[depth_]
        first_slot = slot_anchors[0]
        first_partition = parts[first_slot]
        if not owns(first_partition):
            # The whole subtree expands from a vertex another shard owns.
            hand_off(depth_, crossings_, first_partition)
            return
        first = mapping[first_slot]
        want = label_ids[depth_]
        for cand in neighbors(first):
            cand_part = partition_of(cand)
            crossed = cand_part != first_partition
            if crossed:
                # Candidate generation itself followed a border edge —
                # speculative cost, charged whether or not it pans out.
                current.border_expansions += 1
            if cand in used or label_of[cand] != want:
                continue
            added = 1 if crossed else 0
            ok = True
            deferred = False
            for index in range(1, len(slot_anchors)):
                a = slot_anchors[index]
                other = mapping[a]
                present = has_edge(cand, other)
                if present is None:
                    # Both endpoints remote: only cand's owner can decide.
                    hand_off(depth_, crossings_, cand_part, (cand, cand_part, index, added))
                    deferred = True
                    break
                if not present:
                    ok = False
                    break
                if cand_part != parts[a]:
                    added += 1
            if deferred or not ok:
                continue
            descend(depth_, cand, cand_part, crossings_ + added)

    def resume(depth_: int, crossings_: int, pend: Tuple[int, int, int, int]) -> None:
        cand, cand_part, anchor_index, added = pend
        slot_anchors = anchors[depth_]
        ok = True
        for index in range(anchor_index, len(slot_anchors)):
            a = slot_anchors[index]
            other = mapping[a]
            present = has_edge(cand, other)
            if present is None:  # pragma: no cover - routing guarantees locality
                raise RuntimeError(
                    f"validation handoff landed on a view that cannot decide "
                    f"edge ({cand}, {other})"
                )
            if not present:
                ok = False
                break
            if cand_part != parts[a]:
                added += 1
        if ok:
            descend(depth_, cand, cand_part, crossings_ + added)

    if pending is not None:
        resume(depth, crossings, pending)
    else:
        backtrack(depth, crossings)
    flush()
    return segments


def enumerate_root(view, plan: CompiledPlan, root: int, root_partition: int) -> List[object]:
    """Start the DFS for ``(plan, root)``; the root's label was checked by
    the caller (driver or owning shard) against ``plan.label_ids[0]``."""
    total = plan.num_slots
    mapping = [UNMAPPED] * total
    parts = [UNMAPPED] * total
    mapping[0] = root
    parts[0] = root_partition
    return execute_step(view, plan, 1, mapping, parts, 0)


def _unresolved(continuation):
    raise RuntimeError(f"no resolver for continuation {continuation!r}")


def splice_segments(
    segments: Sequence[object], resolve=_unresolved
) -> Tuple[List[Tuple[int, ...]], int, int]:
    """Fold an ordered segment list into ``(embeddings, hops, border)``.

    ``resolve(continuation)`` must return the already-folded
    ``(embeddings, hops, border)`` triple of the handed-off subtree — the
    driver resolves continuations bottom-up, so splicing stays iterative.
    Without one, a continuation raises: a shard that splices its own
    output has nothing to resolve it with.
    """
    embeddings: List[Tuple[int, ...]] = []
    hops = 0
    border = 0
    for segment in segments:
        if isinstance(segment, LiteralSegment):
            embeddings.extend(segment.embeddings)
            hops += segment.hops
            border += segment.border_expansions
        else:
            sub_embeddings, sub_hops, sub_border = resolve(segment)
            embeddings.extend(sub_embeddings)
            hops += sub_hops
            border += sub_border
    return embeddings, hops, border
