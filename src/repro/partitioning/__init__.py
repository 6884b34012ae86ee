"""Partition state, streaming partitioners and partition-quality metrics.

Loom (in :mod:`repro.core.loom`) and the three comparison systems of the
paper's evaluation live on the same abstractions defined here:

* :class:`PartitionState` — a vertex-centric k-way partitioning under a
  capacity constraint (Sec. 1.3), backed by an interned assignment vector
  and per-partition counts,
* :class:`StreamingPartitioner` — the one-pass ingest protocol,
* :class:`HashPartitioner` — the naive baseline used by production graph
  databases,
* :class:`LDGPartitioner` — Linear Deterministic Greedy (Stanton & Kliot),
* :class:`FennelPartitioner` — Fennel (Tsourakakis et al., γ = 1.5),
* :mod:`repro.partitioning.registry` — the name → partitioner table every
  call site (CLI, harness, experiments) instantiates systems through,
* :mod:`repro.partitioning.metrics` — edge-cut, balance and communication
  volume.

``tests/test_golden_assignments.py`` pins every system's placements as
sha256 assignment digests.
"""

from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.state import PartitionState
from repro.partitioning.hash_partitioner import HashPartitioner
from repro.partitioning.ldg import LDGPartitioner, ldg_choose, ldg_choose_ids
from repro.partitioning.fennel import FennelPartitioner
from repro.partitioning.metrics import (
    communication_volume,
    cut_fraction,
    edge_cut,
    imbalance,
    partition_quality_summary,
)

__all__ = [
    "FennelPartitioner",
    "HashPartitioner",
    "LDGPartitioner",
    "PartitionState",
    "StreamingPartitioner",
    "communication_volume",
    "cut_fraction",
    "edge_cut",
    "imbalance",
    "ldg_choose",
    "ldg_choose_ids",
    "partition_quality_summary",
]
