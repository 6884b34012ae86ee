"""The experiment harness: stream → partition → execute → ipt.

This module implements the evaluation protocol of paper Sec. 5.1:

1. stream a graph from the dataset registry in a chosen order,
2. produce a k-way partitioning with each system under comparison
   (Hash / LDG / Fennel / Loom),
3. execute the dataset's query workload over each partitioning and count
   inter-partition traversals (ipt),
4. report each system's ipt relative to Hash (the Figs. 7/8 y-axis).

Window sizes are scaled presets: the paper uses a 10k-edge window over
multi-million-edge streams; the harness keeps the window a comparable
fraction of the (laptop-scale) streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.datasets.registry import Dataset
from repro.graph.labelled_graph import LabelledGraph
from repro.graph.stream import EdgeEvent, StreamOrder, stream_edges
from repro.partitioning import registry
from repro.partitioning.metrics import partition_quality_summary
from repro.partitioning.state import PartitionState
from repro.query.executor import ExecutionReport, WorkloadExecutor
from repro.query.workload import Workload

SYSTEMS = registry.BUILTIN_SYSTEMS
"""The four systems of the paper's comparison (Sec. 5.1)."""

DEFAULT_IMBALANCE = 1.1
"""Capacity slack ν = b = 1.1 shared by all systems (Secs. 4/5.1)."""


@dataclass
class SystemRun:
    """One system's partitioning of one stream, plus its quality numbers."""

    system: str
    state: PartitionState
    seconds: float
    edges: int
    report: Optional[ExecutionReport] = None
    quality: Dict[str, float] = field(default_factory=dict)
    #: Matcher/plan counters (``MatcherStats.as_dict()``) for systems that
    #: carry a stream matcher (Loom); ``None`` for the rest.
    matcher_stats: Optional[Dict[str, int]] = None

    @property
    def ms_per_10k_edges(self) -> float:
        """Table 2's unit."""
        if self.edges == 0:
            return 0.0
        return (self.seconds / self.edges) * 10_000 * 1_000.0

    def stats_lines(self) -> list:
        """Matcher counters as ``"system.matcher.key: value"`` lines.

        Rendered through :func:`repro.obs.format.render_lines` — the same
        dotted-name formatter behind ``partition_cli --stats`` and the
        live cluster's stats dump, so every surface prints counters
        identically (grep once, match everywhere).
        """
        from repro.obs.format import render_lines

        if not self.matcher_stats:
            return []
        return render_lines(self.matcher_stats, prefix=f"{self.system}.matcher")

    @property
    def edges_per_second(self) -> float:
        return self.edges / self.seconds if self.seconds else float("inf")


@dataclass
class ComparisonResult:
    """All systems over one (dataset, order, k) cell of Figs. 7/8."""

    dataset: str
    order: str
    k: int
    runs: Dict[str, SystemRun]

    def relative_ipt(self, system: str, baseline: str = "hash") -> float:
        """ipt of ``system`` as a percentage of ``baseline`` (Hash = 100)."""
        return self.runs[system].report.relative_to(self.runs[baseline].report)

    def row(self) -> Dict[str, object]:
        out: Dict[str, object] = {"dataset": self.dataset, "order": self.order, "k": self.k}
        for name in self.runs:
            out[name] = round(self.relative_ipt(name), 1)
        # Truncated enumeration under-counts ipt; every published table row
        # carries the roll-up so a binding cap can't skew numbers silently.
        out["capped"] = any(run.report.capped for run in self.runs.values())
        return out


def scaled_window(graph: LabelledGraph, fraction: float = 0.12, minimum: int = 200) -> int:
    """A window that is the same *fraction* of the stream as the paper's.

    The paper's 10k window spans roughly 0.1–10% of its streams; at laptop
    scale we keep the window a fixed, configurable fraction of the edges —
    the default here is the one every experiment and the CLI use.
    """
    return max(minimum, int(graph.num_edges * fraction))


def run_system(
    system: str,
    graph: LabelledGraph,
    workload: Workload,
    events: Sequence[EdgeEvent],
    k: int,
    window_size: Optional[int] = None,
    seed: int = 0,
    executor: Optional[WorkloadExecutor] = None,
    loom_kwargs: Optional[Dict] = None,
) -> SystemRun:
    """Partition ``events`` with ``system`` and (optionally) execute ``workload``."""
    state = PartitionState.for_graph(k, graph.num_vertices, DEFAULT_IMBALANCE)
    window = window_size if window_size is not None else scaled_window(graph)
    partitioner = registry.create(
        system,
        state,
        graph=graph,
        workload=workload,
        window_size=window,
        seed=seed,
        **(loom_kwargs or {}),
    )
    start = time.perf_counter()
    partitioner.ingest_all(events)
    elapsed = time.perf_counter() - start
    run = SystemRun(
        system=system,
        state=state,
        seconds=elapsed,
        edges=partitioner.edges_ingested,
    )
    matcher = getattr(partitioner, "matcher", None)
    if matcher is not None:
        run.matcher_stats = matcher.stats.as_dict()
    # Prefix streams (Table 2 throughput runs) leave unseen vertices
    # unassigned; whole-graph quality only makes sense for full streams.
    if state.num_assigned == graph.num_vertices:
        run.quality = partition_quality_summary(graph, state)
    if executor is not None:
        run.report = executor.execute(state, system)
    return run


def compare_systems(
    dataset: Dataset,
    order: StreamOrder | str = StreamOrder.BREADTH_FIRST,
    k: int = 8,
    systems: Sequence[str] = SYSTEMS,
    window_size: Optional[int] = None,
    seed: int = 0,
    loom_kwargs: Optional[Dict] = None,
    executor: Optional[WorkloadExecutor] = None,
) -> ComparisonResult:
    """One Figs. 7/8 cell: every system over the same ordered stream.

    ``executor`` lets a caller that runs several cells of one dataset share
    its embedding enumeration; one is built when absent.
    """
    events = list(stream_edges(dataset.graph, order, seed=seed))
    if executor is None:
        executor = WorkloadExecutor(dataset.graph, dataset.workload)
    runs = {
        system: run_system(
            system,
            dataset.graph,
            dataset.workload,
            events,
            k,
            window_size=window_size,
            seed=seed,
            executor=executor,
            loom_kwargs=loom_kwargs,
        )
        for system in systems
    }
    return ComparisonResult(
        dataset=dataset.name, order=str(StreamOrder(order).value), k=k, runs=runs
    )
