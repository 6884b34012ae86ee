"""The live cluster: the serving driver over one process per shard.

:class:`LiveCluster` is the sharded deployment of
:class:`~repro.runtime.frontend.ServingFrontEnd`.  The driver process owns
the *decisions* — the single streaming partitioner, the graph, plan
compilation and routing over an adjacency-free
:class:`~repro.serving.stores.RoutingIndex` — while ``num_shards``
long-lived :mod:`repro.runtime.server` processes own the *data*: each
holds the :class:`~repro.serving.stores.ShardStores` (and the unbounded
:class:`~repro.serving.cache.ResultCache` slice) of the partitions with
``p % num_shards == shard_id``, reached through a
:class:`~repro.runtime.transport.QueueTransport` whose queues hold
:data:`~repro.runtime.transport.QUEUE_DEPTH` messages each.

Boot is **one cold pass** (:func:`boot_snapshot`); each shard's slice
rides in its :class:`~repro.runtime.messages.ServeSpec` (a ``Process``
argument: inherited under ``fork``, pickled once under ``spawn``), and the
server acks it as round 0, so the constructor returns a ready cluster.

Determinism contract (tested in ``tests/test_live_serving.py`` and the
determinism suites): on a quiesced stream every answer, hop count and
cache statistic is bit-identical to the single-process engine for any
shard count; under interleaved ingest/serve the lock-step pattern (ingest
round barrier, then a serve burst) keeps the same guarantee because every
request observes exactly one epoch.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple, Union

from repro.graph.labelled_graph import LabelledGraph
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.state import PartitionState
from repro.query.workload import Workload
from repro.runtime.frontend import ServingFrontEnd, check_cache_flag
from repro.runtime.messages import ServeSpec, shard_of_partition
from repro.runtime.transport import QueueTransport
from repro.serving.router import Router
from repro.serving.stores import RoutingIndex, cold_rows

#: A shard's boot snapshot rows (:class:`~repro.runtime.messages.ServeSpec`).
MemberRow = Tuple[int, int, int, List[int]]
GhostRow = Tuple[int, int, int]


def boot_snapshot(
    graph: LabelledGraph, state: PartitionState, num_shards: int
) -> Tuple[RoutingIndex, List[List[MemberRow]], List[List[GhostRow]]]:
    """The driver's one cold pass: its routing index and every shard's slice.

    Per shard, ``(vid, label_id, partition, nbrs)`` for each placed vertex
    it owns, in ``graph.vertices()`` order with ``nbrs`` sorted, and
    ``(vid, label_id, partition)`` for each off-shard neighbour, by id —
    what :meth:`~repro.serving.stores.ShardStores.from_rows` boots from.
    Edges with an unplaced endpoint stay in the index's pending buffer and
    out of every slice, exactly as :meth:`RoutingIndex.from_state` leaves
    them; no vertex row is queued, so the first round announces only
    vertices placed after boot.
    """
    index = RoutingIndex(state)
    partition_of = state.assignment_vector
    members: List[List[MemberRow]] = [[] for _ in range(num_shards)]
    ghost_ids: List[Set[int]] = [set() for _ in range(num_shards)]
    for row in cold_rows(index, graph):
        nbrs = row[3]
        nbrs.sort()
        shard = shard_of_partition(row[2], num_shards)
        members[shard].append(row)
        ghost_ids[shard].update([w for w in nbrs if partition_of[w] % num_shards != shard])
    label_of = index._label_of
    ghosts = [[(w, label_of[w], partition_of[w]) for w in sorted(ids)] for ids in ghost_ids]
    return index, members, ghosts


class LiveCluster(ServingFrontEnd):
    """N live shard servers behind one routing/ingest driver.

    ``router``, ``cache`` and ``partitioner`` mean what they mean on
    :class:`~repro.serving.engine.ServingEngine`; ``num_shards`` picks the
    process topology.  With obs enabled each shard ships a StatsReport
    every :data:`~repro.runtime.server.STATS_EVERY` ingest rounds.  Use as
    a context manager, or call :meth:`close` — servers are long-lived
    processes.
    """

    obs_prefix = "live"
    done_event = "live.serve.done"

    def __init__(
        self,
        graph: LabelledGraph,
        state: PartitionState,
        workload: Workload,
        *,
        num_shards: int,
        router: Union[Router, str] = "candidate-count",
        cache: bool = True,
        partitioner: Optional[StreamingPartitioner] = None,
        start_method: Optional[str] = None,
        request_timeout: float = 120.0,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        check_cache_flag(cache)  # before the snapshot is cut or a server starts
        index, members, ghosts = boot_snapshot(graph, state, num_shards)
        super().__init__(
            graph,
            state,
            workload,
            index,
            router,
            partitioner,
            num_shards=num_shards,
            cache=cache,
            request_timeout=request_timeout,
        )
        depths = self._query_depths()
        specs = [
            ServeSpec(
                shard_id=shard_id,
                num_shards=num_shards,
                k=state.k,
                query_depths=depths,
                cache_enabled=self.cache_enabled,
                obs_enabled=self._obs_on,
                members=members[shard_id],
                ghosts=ghosts[shard_id],
            )
            for shard_id in range(num_shards)
        ]
        self._boot(QueueTransport(specs, start_method, request_timeout))
