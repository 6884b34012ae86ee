"""Partition-local query serving: the live counterpart of the ipt metric.

The offline :class:`~repro.query.executor.WorkloadExecutor` scores a
partitioning after the fact; this package *serves* a query workload
through the partitions.  One routing index and the per-shard adjacency
stores (:mod:`repro.serving.stores`) hold the data on interned ids; a
router from a fixed table (:mod:`repro.serving.router`) picks the
partitions a query starts in; one step executor
(:mod:`repro.serving.execution`) expands embeddings partition-locally and
charges an explicit **hop** whenever expansion follows a border edge — on
full enumeration the hop total of a query is bit-identical to the
executor's ``cut_traversals``.  The engine (:mod:`repro.serving.engine`)
runs :mod:`repro.runtime`'s one serving driver over one in-process shard
server, with a ``(query, root)`` result cache (:mod:`repro.serving.cache`)
that composes with ``StreamingPartitioner.ingest_batch``; a
:class:`~repro.runtime.live.LiveCluster` runs the same driver over shard
processes.  One traffic driver (:mod:`repro.serving.traffic`) measures
wall-clock throughput and latency percentiles against either alike.

Quickstart (see ``examples/serving_demo.py`` for a narrated version)::

    from repro.serving import ServingEngine, TrafficDriver

    engine = ServingEngine(graph, state, workload, router="candidate-count")
    report = engine.execute_workload()      # hops == executor cut_traversals
    driver = TrafficDriver(engine, seed=0, zipf_s=1.1)
    print(driver.run(1000, inflight=1).as_dict())  # queries/s, p50/p95/p99, hops
"""

from repro.serving.cache import ResultCache
from repro.serving.execution import RootResult
from repro.serving.router import Router, available_routers, create_router
from repro.serving.stores import RoutingIndex, ShardStores
from repro.serving.traffic import TrafficDriver, TrafficReport, sample_requests

__all__ = [
    "QueryServeReport",
    "ResultCache",
    "RootResult",
    "Router",
    "RoutingIndex",
    "ServeReport",
    "ServingEngine",
    "ShardStores",
    "TrafficDriver",
    "TrafficReport",
    "available_routers",
    "create_router",
    "sample_requests",
]

#: Names of :mod:`repro.serving.engine`, imported on first use: the engine
#: is a deployment of :mod:`repro.runtime`'s driver, which is built on this
#: package's kernels, so importing it here would make the two packages'
#: import order matter.
_ENGINE_NAMES = frozenset({"QueryServeReport", "ServeReport", "ServingEngine"})


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        from repro.serving import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
