"""The live ingest-and-serve cluster — the one multi-process harness.

:class:`LiveCluster` is the only thing in this package that starts a
process: one driver owns the streaming partitioner, plan compilation and
routing; ``num_shards`` long-lived shard servers (:mod:`repro.runtime.server`)
own the adjacency and the result-cache slice of the partitions with
``p % num_shards == shard_id`` (:func:`shard_of_partition`).  Everything
that crosses a queue is declared in :mod:`repro.runtime.messages`; a dead
or failed server surfaces as :class:`ShardProcessError`
(:mod:`repro.runtime.liveness`).

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
