"""repro — a reproduction of *Loom: Query-aware Partitioning of Online Graphs*
(Firth, Missier, Aiston; EDBT 2018).

The package provides:

* :mod:`repro.graph` — labelled graphs, graph streams and stream orderings,
* :mod:`repro.core` — signatures, TPSTry++, stream motif matching, equal
  opportunism and the :class:`~repro.core.loom.LoomPartitioner`,
* :mod:`repro.partitioning` — interned, array-backed partition state,
  metrics, the Hash / LDG / Fennel comparison systems and the table that
  builds each system by name (:mod:`repro.partitioning.registry`),
* :mod:`repro.query` — pattern graphs, workloads, sub-graph isomorphism and
  the inter-partition-traversal (ipt) executor,
* :mod:`repro.datasets` — synthetic stand-ins for the paper's five datasets,
* :mod:`repro.bench` — the harness regenerating every table and figure.

Quickstart::

    from repro import (
        LoomPartitioner, PartitionState, Workload, WorkloadExecutor,
        path_pattern, stream_edges,
    )

    workload = Workload([(path_pattern(["a", "b", "c"]), 0.6),
                         (path_pattern(["a", "b"]), 0.4)])
    state = PartitionState.for_graph(k=4, expected_vertices=graph.num_vertices)
    loom = LoomPartitioner(state, workload, window_size=1000)
    loom.ingest_all(stream_edges(graph, "bfs"))
    report = WorkloadExecutor(graph, workload).execute(state, "loom")
    print(report.weighted_ipt)

See ``ARCHITECTURE.md`` for the layer diagram, the vertex-interning
boundary, and how to add a partitioner.
"""

from repro.core.allocation import EqualOpportunism
from repro.core.collision import acceptance_probability, figure4_curves
from repro.core.loom import LoomPartitioner
from repro.core.matching import Match, StreamMatcher
from repro.core.window import LabelConflictError
from repro.core.motifs import MotifIndex
from repro.core.signature import FactorMultiset, SignatureScheme
from repro.core.tpstry import TPSTry
from repro.graph.labelled_graph import LabelledGraph
from repro.graph.stream import EdgeEvent, StreamOrder, stream_edges
from repro.partitioning.fennel import FennelPartitioner
from repro.partitioning.hash_partitioner import HashPartitioner
from repro.partitioning.ldg import LDGPartitioner
from repro.partitioning.state import PartitionState
from repro.query.executor import ExecutionReport, WorkloadExecutor
from repro.query.pattern import PatternGraph, cycle_pattern, edge_pattern, path_pattern, star_pattern
from repro.query.workload import Workload

__version__ = "1.0.0"

__all__ = [
    "EdgeEvent",
    "EqualOpportunism",
    "ExecutionReport",
    "FactorMultiset",
    "FennelPartitioner",
    "HashPartitioner",
    "LDGPartitioner",
    "LabelConflictError",
    "LabelledGraph",
    "LoomPartitioner",
    "Match",
    "MotifIndex",
    "PartitionState",
    "PatternGraph",
    "SignatureScheme",
    "StreamMatcher",
    "StreamOrder",
    "TPSTry",
    "Workload",
    "WorkloadExecutor",
    "acceptance_probability",
    "cycle_pattern",
    "edge_pattern",
    "figure4_curves",
    "path_pattern",
    "star_pattern",
    "stream_edges",
    "__version__",
]
