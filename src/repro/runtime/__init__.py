"""The serving driver, its shard servers and the transports between them.

One driver (:mod:`repro.runtime.frontend`) reaches shard servers
(:mod:`repro.runtime.server`, each owning the partitions with
``p % num_shards == shard_id``: :func:`shard_of_partition`) through a
transport (:mod:`repro.runtime.transport`): :class:`LiveCluster` one
server process per shard, :class:`~repro.serving.engine.ServingEngine`
one in-process server.  Everything that crosses a transport is declared
in :mod:`repro.runtime.messages`; a dead or failed server process
surfaces as :class:`ShardProcessError` (:mod:`repro.runtime.liveness`).

Quickstart (see ``examples/live_serving.py`` for a narrated version)::

    from repro.runtime import LiveCluster

    with LiveCluster(graph, state, workload, num_shards=2) as cluster:
        report = cluster.execute_workload("loom")  # hops are real messages
        cluster.stats()  # queue depths, per-shard ServerStats
"""

from repro.runtime.live import LiveCluster, shard_of_partition
from repro.runtime.liveness import ShardProcessError, describe_exit
from repro.runtime.messages import SCHEMA_VERSION, ServerStats

__all__ = [
    "LiveCluster",
    "SCHEMA_VERSION",
    "ServerStats",
    "ShardProcessError",
    "describe_exit",
    "shard_of_partition",
]
