"""How the driver's messages reach its shard servers: two transports.

A transport has ``put(shard, message)`` — an
:class:`~repro.runtime.messages.EdgeUpdate` or
:class:`~repro.runtime.messages.InvalidationHops` to the shard's ingest
side, any other wire message to its request side — ``next_message(deadline)``,
the next reply of any shard (an error past the ``time.monotonic()``
deadline), and ``close()``.

:class:`QueueTransport` runs one :func:`~repro.runtime.server.shard_server_main`
process per shard behind bounded queues; a dead or failed server surfaces
as :class:`~repro.runtime.liveness.ShardProcessError`, never a hang.
:class:`LocalTransport` holds one in-process
:class:`~repro.runtime.server.ShardServer`.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import time
from collections import deque
from typing import List, Optional, Sequence

from repro.runtime.liveness import describe_exit, failure_from_process, raise_failure
from repro.runtime.messages import (
    END_OF_STREAM,
    EdgeUpdate,
    IngestAck,
    InvalidationHops,
    ServeSpec,
    ServerFailure,
)
from repro.runtime.server import ShardServer, shard_server_main

#: Messages a shard takes on its ingest side, ahead of any request.
INGEST_MESSAGES = (EdgeUpdate, InvalidationHops)

QUEUE_DEPTH = 16
"""Messages a server queue buffers before the driver's put blocks."""


class QueueTransport:
    """One shard server process per spec, behind bounded queues.

    Each shard has an ingest and a request queue of :data:`QUEUE_DEPTH`
    messages; every shard replies on one shared queue.  Processes start
    in the constructor — a failed start closes those already running —
    and each acks its boot snapshot as round 0 on the reply queue.
    """

    def __init__(
        self,
        specs: Sequence[ServeSpec],
        start_method: Optional[str],
        request_timeout: float,
    ) -> None:
        ctx = mp.get_context(
            start_method
            if start_method is not None
            else ("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        )
        #: Only names the timeout in the error a hard deadline raises.
        self.request_timeout = request_timeout
        self._ingest_queues = [ctx.Queue(maxsize=QUEUE_DEPTH) for _ in specs]
        self._request_queues = [ctx.Queue(maxsize=QUEUE_DEPTH) for _ in specs]
        self._out_queue = ctx.Queue()
        #: Replies read while waiting on a full queue, oldest first.
        self._inbox: "deque[object]" = deque()
        self._servers: List = []
        self._closed = False
        try:
            for spec in specs:
                shard_id = spec.shard_id
                process = ctx.Process(
                    target=shard_server_main,
                    args=(
                        spec,
                        self._ingest_queues[shard_id],
                        self._request_queues[shard_id],
                        self._out_queue,
                    ),
                    name=f"loom-serve-{shard_id}",
                    daemon=True,
                )
                process.start()
                self._servers.append(process)
        except BaseException:
            self.close()
            raise

    def _get(self, timeout: Optional[float]):
        """One reply (``queue.Empty`` when none came within ``timeout``;
        ``None`` does not wait); a failure envelope is raised."""
        if timeout is None:
            message = self._out_queue.get_nowait()
        else:
            message = self._out_queue.get(timeout=timeout)
        if isinstance(message, ServerFailure):
            raise_failure(message)
        return message

    def _check_servers(self) -> None:
        for shard_id, process in enumerate(self._servers):
            if not process.is_alive():
                # One grace read: the failure envelope may still be in flight.
                try:
                    self._inbox.append(self._get(1.0))
                except queue_module.Empty:
                    raise failure_from_process(shard_id, process, "mid-serve") from None

    def put(self, shard: int, message) -> None:
        """Bounded put with liveness: drain replies while the queue is full
        so a dead or wedged server surfaces as an error, not a hang."""
        queues = (
            self._ingest_queues if isinstance(message, INGEST_MESSAGES) else self._request_queues
        )
        while True:
            try:
                queues[shard].put(message, timeout=1.0)
                return
            except queue_module.Full:
                while True:
                    try:
                        self._inbox.append(self._get(None))
                    except queue_module.Empty:
                        break
                self._check_servers()

    def next_message(self, deadline: float):
        """One message from the inbox or the shared reply queue; past
        ``deadline`` an error naming each server's state."""
        if self._inbox:
            return self._inbox.popleft()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                states = ", ".join(
                    f"shard {i}: {describe_exit(p) if p.exitcode is not None else 'alive'}"
                    for i, p in enumerate(self._servers)
                )
                raise RuntimeError(
                    f"live cluster timed out after {self.request_timeout:g}s "
                    f"waiting for shard replies [{states}]"
                )
            try:
                return self._get(min(1.0, remaining))
            except queue_module.Empty:
                self._check_servers()
                if self._inbox:
                    return self._inbox.popleft()

    def queue_depths(self) -> List[int]:
        """Messages waiting per shard, both queues (-1 where unknown)."""
        depths = []
        for ingest, request in zip(self._ingest_queues, self._request_queues):
            try:
                depths.append(ingest.qsize() + request.qsize())
            except NotImplementedError:  # pragma: no cover - macOS qsize
                depths.append(-1)
        return depths

    def close(self) -> None:
        """Shut every server down; terminate stragglers after a grace join."""
        if self._closed:
            return
        self._closed = True
        for ingest, request in zip(self._ingest_queues, self._request_queues):
            for shard_queue in (ingest, request):
                try:
                    shard_queue.put_nowait(END_OF_STREAM)
                except queue_module.Full:
                    pass
        for process in self._servers:
            process.join(timeout=2.0)
        for process in self._servers:
            if process.is_alive():
                process.terminate()
                process.join(timeout=10.0)


class LocalTransport:
    """One in-process shard server, answering when the driver asks.

    ``put`` only queues; ``next_message`` handles queued messages — the
    ingest side drained first, as
    :func:`~repro.runtime.server.shard_server_main` drains it — until one
    yields a reply.  The server's boot snapshot is acked as round 0, as a
    process acks it.  A server exception propagates as itself.
    """

    def __init__(self, server: ShardServer) -> None:
        self.server = server
        self._ingest: "deque[object]" = deque()
        self._requests: "deque[object]" = deque()
        self._replies: "deque[object]" = deque(
            [IngestAck(server.shard_id, server.seq, server.stores.num_edges)]
        )

    def put(self, shard: int, message) -> None:
        (self._ingest if isinstance(message, INGEST_MESSAGES) else self._requests).append(message)

    def next_message(self, deadline: float):
        """The next reply; nothing queued is an error — no message can
        arrive later in process."""
        server, replies = self.server, self._replies
        while not replies:
            if self._ingest:
                replies.append(server.handle_ingest_message(self._ingest.popleft()))
            elif self._requests:
                reply = server.handle_request_message(self._requests.popleft())
                if reply is not None:
                    replies.append(reply)
            else:
                raise RuntimeError("in-process shard server has nothing to answer")
        return replies.popleft()

    def queue_depths(self) -> List[int]:
        return [len(self._ingest) + len(self._requests)]

    def close(self) -> None:
        """Nothing to release in process."""
