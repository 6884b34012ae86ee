"""Online (mid-stream) ipt measurement with ``Ptemp`` as a partition.

Sec. 3 of the paper: Loom's sliding window introduces a delay between an
edge's arrival and its permanent placement, so "Loom views the sliding
window itself as an extra partition, which we denote Ptemp" — queries can
reach in-flight vertices there, at inter-partition cost.

:func:`snapshot_report` implements that view for evaluation: execute a
workload over the graph *streamed so far*, treating

* placed vertices as members of their permanent partition,
* vertices currently held only by window edges, and vertices Loom has
  parked (motif-label endpoints of non-motif edges, waiting one window
  turnover for an auction — :mod:`repro.core.loom`), as members of the
  extra partition ``k`` (Ptemp),

and counting crossings as usual.  This is how a live system's query cost
looks *during* ingestion, before the window drains — the quantity behind
the paper's remark that an oversized window is itself a source of ipt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Optional

from repro.core.loom import LoomPartitioner
from repro.graph.labelled_graph import LabelledGraph, Vertex
from repro.graph.stream import EdgeEvent
from repro.partitioning.state import PartitionState
from repro.query.executor import ExecutionReport, WorkloadExecutor
from repro.query.workload import Workload


@dataclass
class OnlineSnapshot:
    """One mid-stream measurement."""

    edges_seen: int
    vertices_placed: int
    vertices_in_window: int
    vertices_parked: int
    report: ExecutionReport

    @property
    def weighted_ipt(self) -> float:
        return self.report.weighted_ipt


class _SnapshotView(PartitionState):
    """A read-only overlay: unplaced window vertices and parked vertices
    map to partition k.

    Only the lookups the executor uses are overridden; mutation is blocked
    because a snapshot must not leak assignments back into the real state.
    """

    def __init__(
        self,
        base: PartitionState,
        window_graph: LabelledGraph,
        parked: Collection[Vertex] = (),
    ) -> None:
        super().__init__(base.k + 1, base.capacity)
        self._base = base
        self._window_graph = window_graph
        self._parked = frozenset(parked)
        self._ptemp = base.k

    def partition_of(self, v):
        placed = self._base.partition_of(v)
        if placed is not None:
            return placed
        if self._window_graph.has_vertex(v) or v in self._parked:
            return self._ptemp
        return None

    def is_assigned(self, v) -> bool:
        return self.partition_of(v) is not None

    def assign(self, v, partition):  # pragma: no cover - guard
        raise TypeError("snapshot views are read-only")


def snapshot_report(
    streamed_graph: LabelledGraph,
    workload: Workload,
    loom: LoomPartitioner,
    embedding_limit: Optional[int] = 50_000,
) -> OnlineSnapshot:
    """Execute ``workload`` over the stream-so-far with Ptemp visible.

    ``streamed_graph`` must contain exactly the edges ingested so far (the
    caller accumulates it; see :func:`stream_with_snapshots`).  Every
    vertex in it is placed, in the window or parked, so every traversal
    resolves.
    """
    # The id-based window has no live vertex-object graph; materialise one
    # snapshot copy (O(window), once per report — snapshots are periodic).
    window_graph = loom.matcher.window.to_labelled_graph()
    parked = loom.parked_vertices()
    view = _SnapshotView(loom.state, window_graph, parked)
    executor = WorkloadExecutor(streamed_graph, workload, embedding_limit=embedding_limit)
    report = executor.execute(view, "loom+ptemp")
    return OnlineSnapshot(
        edges_seen=streamed_graph.num_edges,
        vertices_placed=loom.state.num_assigned,
        vertices_in_window=window_graph.num_vertices,
        vertices_parked=len(parked),
        report=report,
    )


def stream_with_snapshots(
    loom: LoomPartitioner,
    events: Iterable[EdgeEvent],
    workload: Workload,
    every: int = 1_000,
    embedding_limit: Optional[int] = 50_000,
):
    """Drive ``loom`` over ``events``, yielding an :class:`OnlineSnapshot`
    every ``every`` edges (and once more after ``finalize``).

    The caller can watch query cost evolve while the graph is still
    arriving — the online setting the paper targets.
    """
    if every < 1:
        raise ValueError("'every' must be positive")
    streamed = LabelledGraph("streamed")
    count = 0
    for event in events:
        loom.ingest(event)
        streamed.add_edge(event.u, event.v, event.u_label, event.v_label)
        count += 1
        if count % every == 0:
            yield snapshot_report(streamed, workload, loom, embedding_limit)
    loom.finalize()
    yield snapshot_report(streamed, workload, loom, embedding_limit)
