"""Pluggable start-partition routing for the serving engine.

A router decides **which partitions a query is dispatched to, and in what
order**, given the label of the query plan's root slot.  It never changes
*what* is answered — on full enumeration every router yields the identical
embedding set and hop count (partitions without root candidates contribute
nothing) — it changes how much dispatch work the engine does: the naive
broadcast baseline contacts every partition, the smart routers skip the
ones that cannot start the query ("On Smart Query Routing", PAPERS.md).

Every call site that turns a router *name* into an instance goes through
:func:`create_router`, over the fixed table of the three policies below;
a front end also takes a :class:`Router` instance directly.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Tuple, Type

from repro.serving.stores import RoutingIndex


class Router(abc.ABC):
    """Start-partition selection policy."""

    name: str = "abstract"

    @abc.abstractmethod
    def route(self, index: RoutingIndex, root_label_id: int) -> List[int]:
        """The partitions to dispatch a root scan to, in contact order."""


class BroadcastRouter(Router):
    """The naive baseline: contact every partition, candidates or not."""

    name = "broadcast"

    def route(self, index: RoutingIndex, root_label_id: int) -> List[int]:
        return list(range(index.k))


class CandidateCountRouter(Router):
    """Contact only partitions holding root candidates, most first.

    The count of label-matching vertices per partition is the smart-routing
    signal: partitions with more candidates amortise the dispatch better,
    and empty partitions are never contacted at all.
    """

    name = "candidate-count"

    def route(self, index: RoutingIndex, root_label_id: int) -> List[int]:
        counts = index.candidate_counts(root_label_id)
        ranked = [(count, p) for p, count in enumerate(counts) if count > 0]
        ranked.sort(key=lambda item: (-item[0], item[1]))
        return [p for _count, p in ranked]


class LabelSelectivityRouter(Router):
    """Contact candidate-holding partitions by label *density*, densest first.

    Density — candidates over partition size — favours partitions where the
    root label is locally selective (a large share of the stored vertices
    can start the query), a better proxy for useful work per contact than
    the raw count when partition sizes are skewed.
    """

    name = "label-selectivity"

    def route(self, index: RoutingIndex, root_label_id: int) -> List[int]:
        ranked = []
        for p, store in enumerate(index.stores):
            count = store.candidate_count(root_label_id)
            if count > 0:
                ranked.append((-count / max(1, store.num_members), p))
        ranked.sort()
        return [p for _density, p in ranked]


_ROUTERS: Dict[str, Type[Router]] = {
    cls.name: cls for cls in (BroadcastRouter, CandidateCountRouter, LabelSelectivityRouter)
}

BUILTIN_ROUTERS: Tuple[str, ...] = tuple(_ROUTERS)
"""The built-in policies, naive baseline first."""


def available_routers() -> Tuple[str, ...]:
    """Every router name :func:`create_router` accepts."""
    return BUILTIN_ROUTERS


def create_router(name: str) -> Router:
    """Instantiate the router named ``name``.

    Unknown names raise ``ValueError`` listing every known name, mirroring
    the partitioner registry's misuse error.
    """
    cls = _ROUTERS.get(name)
    if cls is None:
        raise ValueError(f"unknown router {name!r}; expected one of {BUILTIN_ROUTERS}")
    return cls()
