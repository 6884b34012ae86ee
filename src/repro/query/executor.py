"""Workload execution over a partitioned graph: the ipt metric (Sec. 5).

The paper measures partitioning quality as the number of **inter-partition
traversals** (ipt) incurred while executing a workload over logical
partitions: every time query evaluation follows an edge whose endpoints live
in different partitions, one ipt is charged.

:class:`WorkloadExecutor` enumerates every embedding of every workload query
once (the embedding set depends only on the graph, not on any partitioning)
and then scores any number of partitionings cheaply by counting, per
embedding, the traversed edges that cross partitions — weighted by the
query's frequency, so a workload that is 60% q2 charges q2's crossings at
0.6, exactly like executing a proportional query mix.
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
        # Per query: (name, frequency, traversed-edge lists, capped flag).
        self._plans: List[Tuple[str, float, List[List[Edge]], bool]] = []
        for entry in workload:
            edge_lists: List[List[Edge]] = []
            for embedding in find_embeddings(graph, entry.pattern, embedding_limit):
                edge_lists.append(embedding_edges(entry.pattern, embedding))
            capped = embedding_limit is not None and len(edge_lists) >= embedding_limit
            self._plans.append((entry.pattern.name, entry.frequency, edge_lists, capped))

    # ------------------------------------------------------------------
    def execute(self, state: PartitionState, system: str = "") -> ExecutionReport:
        """Count ipt for ``state``; every graph vertex must be assigned."""
        report = ExecutionReport(system=system)
        partition_of = state.partition_of
        for name, frequency, edge_lists, capped in self._plans:
            traversals = 0
            cut = 0
            for edges in edge_lists:
                traversals += len(edges)
                for u, v in edges:
                    pu, pv = partition_of(u), partition_of(v)
                    if pu is None or pv is None:
                        raise ValueError(
                            f"query {name!r} traverses edge ({u!r}, {v!r}) "
                            "with an unassigned endpoint"
                        )
                    if pu != pv:
                        cut += 1
            report.queries.append(
                QueryReport(
                    name=name,
                    frequency=frequency,
                    embeddings=len(edge_lists),
                    traversals=traversals,
                    cut_traversals=cut,
                    capped=capped,
                )
            )
        return report

    # ------------------------------------------------------------------
    def embeddings_of(self, query_name: str) -> List[List[Edge]]:
        """The enumerated traversed-edge lists of one query (for tests)."""
        for name, _freq, edge_lists, _capped in self._plans:
            if name == query_name:
                return [list(edges) for edges in edge_lists]
        raise KeyError(f"no query named {query_name!r} in workload")

    def summary(self) -> Dict[str, int]:
        return {name: len(edge_lists) for name, _f, edge_lists, _c in self._plans}
