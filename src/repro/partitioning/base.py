"""The streaming-partitioner protocol.

All four systems of the evaluation (Hash, LDG, Fennel, Loom) implement
:class:`StreamingPartitioner`: a strict one-pass interface that consumes
:class:`~repro.graph.stream.EdgeEvent` s and places vertices permanently.
``finalize`` exists for Loom, which holds a sliding window that must be
drained when the stream ends; the others are no-ops.
"""

from __future__ import annotations

import abc
from typing import Iterable, Optional

from repro.graph.labelled_graph import Vertex
from repro.graph.stream import EdgeEvent
from repro.partitioning.state import PartitionState


class StreamingPartitioner(abc.ABC):
    """One-pass edge-stream partitioner over a shared :class:`PartitionState`."""

    name: str = "abstract"

    def __init__(self, state: PartitionState) -> None:
        self.state = state
        self.edges_ingested = 0

    @abc.abstractmethod
    def ingest(self, event: EdgeEvent) -> None:
        """Consume one edge event, possibly assigning its endpoints."""

    def finalize(self) -> None:
        """Flush any buffered state once the stream is exhausted."""

    def ingest_batch(self, events: Iterable[EdgeEvent]) -> int:
        """Consume a batch of events; returns how many were ingested.

        Semantically identical to calling :meth:`ingest` per event —
        batches exist so drivers (the live cluster, bulk loaders) can
        amortise dispatch overhead, and so subclasses can bind their hot
        locals once per batch instead of once per event (Loom overrides
        this).  ``finalize`` is *not* called: a batch is a stream segment,
        not the stream's end.
        """
        ingest = self.ingest
        count = 0
        try:
            for event in events:
                ingest(event)
                count += 1
        finally:
            self.edges_ingested += count
        return count

    # -- convenience ------------------------------------------------------
    def partition_of(self, v: Vertex) -> Optional[int]:
        return self.state.partition_of(v)

    def ingest_all(self, events: Iterable[EdgeEvent]) -> None:
        """Drive the whole stream: one big batch, then :meth:`finalize`.

        Delegating to :meth:`ingest_batch` keeps a single ingest loop (and
        a single ``edges_ingested`` accounting point, flushed even when an
        event raises mid-stream) and gives every caller a subclass's batch
        fast path (Loom's hoisted-binds override).
        """
        self.ingest_batch(events)
        self.finalize()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} k={self.state.k} ingested={self.edges_ingested}>"
