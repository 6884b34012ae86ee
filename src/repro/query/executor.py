"""Workload execution over a partitioned graph: the ipt metric (Sec. 5).

The paper measures partitioning quality as the number of **inter-partition
traversals** (ipt) incurred while executing a workload over logical
partitions: every time query evaluation follows an edge whose endpoints live
in different partitions, one ipt is charged.

:class:`WorkloadExecutor` enumerates every embedding of every workload query
once (the embedding set depends only on the graph, not on any partitioning)
and keeps, per query, how many of its embeddings traverse each data edge.
Scoring a partitioning then sums the counts of the cut edges — weighted by
the query's frequency, so a workload that is 60% q2 charges q2's crossings
at 0.6, exactly like executing a proportional query mix.  The same counts,
summed over queries by frequency, are the per-edge traversal weights
:meth:`WorkloadExecutor.edge_weights` hands to the enhancement pass
(:mod:`repro.core.enhance`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graph.labelled_graph import Edge, LabelledGraph
from repro.partitioning.state import PartitionState
from repro.query.isomorphism import embedding_edges, find_embeddings
from repro.query.workload import Workload

DEFAULT_EMBEDDING_LIMIT = 200_000
"""Per-query cap on enumerated embeddings.

Applied identically to every partitioner (the embedding set is partition
independent), so capped comparisons remain fair; the cap is reported so
experiments can flag when it binds.
"""


@dataclass
class QueryReport:
    """Execution outcome for one workload query against one partitioning."""

    name: str
    frequency: float
    embeddings: int
    traversals: int
    cut_traversals: int
    capped: bool

    @property
    def weighted_ipt(self) -> float:
        """Frequency-weighted inter-partition traversals."""
        return self.frequency * self.cut_traversals

    @property
    def cut_rate(self) -> float:
        return self.cut_traversals / self.traversals if self.traversals else 0.0


@dataclass
class ExecutionReport:
    """Execution outcome for a whole workload against one partitioning."""

    system: str
    queries: List[QueryReport] = field(default_factory=list)

    @property
    def weighted_ipt(self) -> float:
        """The paper's quality number: Σ_q freq(q) · ipt(q)."""
        return sum(q.weighted_ipt for q in self.queries)

    @property
    def total_cut_traversals(self) -> int:
        return sum(q.cut_traversals for q in self.queries)

    @property
    def weighted_traversals(self) -> float:
        return sum(q.frequency * q.traversals for q in self.queries)

    @property
    def ipt_fraction(self) -> float:
        """Fraction of (frequency-weighted) traversals that cross partitions."""
        denom = self.weighted_traversals
        return self.weighted_ipt / denom if denom else 0.0

    @property
    def capped(self) -> bool:
        """True when *any* query's enumeration hit the embedding limit.

        A capped report under-counts embeddings (identically across
        partitioners, but still an under-count) — published ipt numbers
        must surface this roll-up rather than let truncation pass silently.
        """
        return any(q.capped for q in self.queries)

    @property
    def capped_queries(self) -> List[str]:
        """The names of the queries whose enumeration was truncated."""
        return [q.name for q in self.queries if q.capped]

    def relative_to(self, baseline: "ExecutionReport") -> float:
        """ipt as a percentage of a baseline's (Figs. 7/8 plot vs Hash)."""
        if baseline.weighted_ipt == 0:
            return 0.0 if self.weighted_ipt == 0 else float("inf")
        return 100.0 * self.weighted_ipt / baseline.weighted_ipt


class WorkloadExecutor:
    """Enumerate workload embeddings once; score partitionings many times."""

    def __init__(
        self,
        graph: LabelledGraph,
        workload: Workload,
        embedding_limit: Optional[int] = DEFAULT_EMBEDDING_LIMIT,
    ) -> None:
        self.graph = graph
        self.workload = workload
        self.embedding_limit = embedding_limit
        # Per query: (name, frequency, {traversed edge: embeddings that
        # traverse it}, embedding count, capped flag).
        self._plans: List[Tuple[str, float, Dict[Edge, int], int, bool]] = []
        # One embedding past the limit tells a truncated enumeration from a
        # complete one that happens to have exactly ``limit`` embeddings.
        probe = None if embedding_limit is None else embedding_limit + 1
        for entry in workload:
            counts: Dict[Edge, int] = {}
            embeddings = 0
            capped = False
            for embedding in find_embeddings(graph, entry.pattern, probe):
                if embeddings == embedding_limit:
                    capped = True
                    break
                embeddings += 1
                for edge in embedding_edges(entry.pattern, embedding):
                    counts[edge] = counts.get(edge, 0) + 1
            self._plans.append((entry.pattern.name, entry.frequency, counts, embeddings, capped))

    # ------------------------------------------------------------------
    def execute(self, state: PartitionState, system: str = "") -> ExecutionReport:
        """Count ipt for ``state``; every graph vertex must be assigned."""
        report = ExecutionReport(system=system)
        partition_of = state.partition_of
        for name, frequency, counts, embeddings, capped in self._plans:
            traversals = 0
            cut = 0
            for (u, v), count in counts.items():
                traversals += count
                pu, pv = partition_of(u), partition_of(v)
                if pu is None or pv is None:
                    raise ValueError(
                        f"query {name!r} traverses edge ({u!r}, {v!r}) "
                        "with an unassigned endpoint"
                    )
                if pu != pv:
                    cut += count
            report.queries.append(
                QueryReport(
                    name=name,
                    frequency=frequency,
                    embeddings=embeddings,
                    traversals=traversals,
                    cut_traversals=cut,
                    capped=capped,
                )
            )
        return report

    # ------------------------------------------------------------------
    def edge_weights(self) -> Dict[Edge, float]:
        """``w(e) = Σ_q freq(q) · count_q(e)``: the workload's traversals of
        each edge.  Summed over the edges a partitioning cuts, it is that
        partitioning's :attr:`ExecutionReport.weighted_ipt`."""
        weights: Dict[Edge, float] = {}
        for _name, frequency, counts, _embeddings, _capped in self._plans:
            for edge, count in counts.items():
                weights[edge] = weights.get(edge, 0.0) + frequency * count
        return weights

    def summary(self) -> Dict[str, int]:
        return {name: embeddings for name, _f, _c, embeddings, _capped in self._plans}
