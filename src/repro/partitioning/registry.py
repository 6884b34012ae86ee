"""The partitioner table: system name → partitioner instance.

Every call site that turns a system *name* into a partitioner instance —
the CLI, the benchmark harness, the experiment drivers — goes through
:func:`create`, which dispatches over the four systems of the paper's
evaluation (Hash, LDG, Fennel, Loom; Sec. 5.1).  Adding a system is one
branch here, its name in :data:`BUILTIN_SYSTEMS` and one golden digest in
``tests/test_golden_assignments.py``.

A construction site passes everything it knows: the shared
:class:`~repro.partitioning.state.PartitionState` and — when available —
the full graph (for a-priori totals like Fennel's α), the query workload,
the window size and the seed.  A system raises ``ValueError`` when a
required ingredient is missing.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.graph.labelled_graph import LabelledGraph
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.fennel import FennelPartitioner
from repro.partitioning.hash_partitioner import HashPartitioner
from repro.partitioning.ldg import LDGPartitioner
from repro.partitioning.state import PartitionState

BUILTIN_SYSTEMS: Tuple[str, ...] = ("hash", "ldg", "fennel", "loom")
"""The paper's comparison systems (Sec. 5.1), in presentation order."""


def available() -> Tuple[str, ...]:
    """Every system name :func:`create` accepts, in presentation order."""
    return BUILTIN_SYSTEMS


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
    """Instantiate system ``name`` over ``state``.

    ``extra`` reaches Loom as keyword arguments (e.g.
    ``max_matches_per_vertex`` or ``defer_motif_vertices``).
    """
    if name == "hash":
        return HashPartitioner(state, seed=seed)
    if name == "ldg":
        return LDGPartitioner(state)
    if name == "fennel":
        if graph is None:
            raise ValueError("fennel requires graph for its a-priori totals (α)")
        return FennelPartitioner(state, graph.num_vertices, graph.num_edges)
    if name == "loom":
        if workload is None:
            raise ValueError("loom requires workload (it is query-aware)")
        # Imported here because repro.core imports this package.
        from repro.core.loom import LoomPartitioner

        if window_size is not None:
            extra.setdefault("window_size", window_size)
        return LoomPartitioner(state, workload, seed=seed, **extra)
    raise ValueError(f"unknown system {name!r}; expected one of {BUILTIN_SYSTEMS}")
