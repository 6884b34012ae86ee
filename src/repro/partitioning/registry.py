"""The pluggable partitioner registry.

Every call site that turns a system *name* into a partitioner instance —
the CLI, the benchmark harness, the experiment drivers — goes through
:func:`create`, so a new strategy plugs in with one :func:`register` call
and immediately works everywhere::

    from repro.partitioning.registry import register

    @register("metis-lite")
    def _build(ctx):
        return MetisLitePartitioner(ctx.state, seed=ctx.seed)

A factory receives a :class:`PartitionerContext` carrying everything a
construction site knows: the shared
:class:`~repro.partitioning.state.PartitionState`, and — when available —
the full graph (for a-priori totals like Fennel's α), the query workload,
the window size and the seed.  Factories use what they need and raise
``ValueError`` when a required ingredient is missing.

The four systems of the paper's evaluation (Hash, LDG, Fennel, Loom) are
registered lazily on first use, so importing this module stays cheap and
free of import cycles with :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.graph.labelled_graph import LabelledGraph
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.state import PartitionState

BUILTIN_SYSTEMS: Tuple[str, ...] = ("hash", "ldg", "fennel", "loom")
"""The paper's comparison systems (Sec. 5.1), in presentation order."""


@dataclass
class PartitionerContext:
    """Everything a construction site can offer a partitioner factory."""

    state: PartitionState
    graph: Optional[LabelledGraph] = None
    workload: Optional[object] = None
    window_size: Optional[int] = None
    seed: int = 0
    #: Strategy-specific keyword arguments (e.g. Loom's
    #: ``max_matches_per_vertex`` or ``defer_motif_vertices``).
    extra: Dict[str, object] = field(default_factory=dict)


PartitionerFactory = Callable[[PartitionerContext], StreamingPartitioner]

_REGISTRY: Dict[str, PartitionerFactory] = {}
_builtins_loaded = False


def register(name: str, factory: Optional[PartitionerFactory] = None):
    """Register ``factory`` under ``name``; usable as a decorator.

    Re-registering a name replaces the old factory (handy in tests and
    notebooks); registration order is preserved by :func:`available`.
    """
    if not name or not isinstance(name, str):
        raise ValueError("partitioner name must be a non-empty string")
    _ensure_builtins()  # builtins always precede user registrations

    def _register(fn: PartitionerFactory) -> PartitionerFactory:
        _REGISTRY[name] = fn
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def unregister(name: str) -> None:
    """Remove ``name`` from the registry (no-op if absent)."""
    _REGISTRY.pop(name, None)


def is_registered(name: str) -> bool:
    _ensure_builtins()
    return name in _REGISTRY


def available() -> Tuple[str, ...]:
    """All registered system names, builtins first."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def create(
    name: str,
    state: PartitionState,
    *,
    graph: Optional[LabelledGraph] = None,
    workload: Optional[object] = None,
    window_size: Optional[int] = None,
    seed: int = 0,
    **extra: object,
) -> StreamingPartitioner:
    """Instantiate the partitioner registered under ``name``."""
    _ensure_builtins()
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(f"unknown system {name!r}; expected one of {available()}")
    ctx = PartitionerContext(
        state=state,
        graph=graph,
        workload=workload,
        window_size=window_size,
        seed=seed,
        extra=dict(extra),
    )
    return factory(ctx)


def _ensure_builtins() -> None:
    """Idempotently register the paper's four systems.

    Lazy because Loom lives in :mod:`repro.core`, which itself imports this
    package — registering at call time instead of import time keeps the
    layering acyclic.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True

    from repro.core.loom import LoomPartitioner
    from repro.partitioning.fennel import FennelPartitioner
    from repro.partitioning.hash_partitioner import HashPartitioner
    from repro.partitioning.ldg import LDGPartitioner

    @register("hash")
    def _hash(ctx: PartitionerContext) -> StreamingPartitioner:
        return HashPartitioner(ctx.state, seed=ctx.seed)

    @register("ldg")
    def _ldg(ctx: PartitionerContext) -> StreamingPartitioner:
        return LDGPartitioner(ctx.state)

    @register("fennel")
    def _fennel(ctx: PartitionerContext) -> StreamingPartitioner:
        if ctx.graph is None:
            raise ValueError("fennel requires ctx.graph for its a-priori totals (α)")
        return FennelPartitioner(ctx.state, ctx.graph.num_vertices, ctx.graph.num_edges)

    @register("loom")
    def _loom(ctx: PartitionerContext) -> StreamingPartitioner:
        if ctx.workload is None:
            raise ValueError("loom requires ctx.workload (it is query-aware)")
        kwargs = dict(ctx.extra)
        if ctx.window_size is not None:
            kwargs.setdefault("window_size", ctx.window_size)
        return LoomPartitioner(ctx.state, ctx.workload, seed=ctx.seed, **kwargs)
