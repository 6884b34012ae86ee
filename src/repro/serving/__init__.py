"""Partition-local query serving: the live counterpart of the ipt metric.

The offline :class:`~repro.query.executor.WorkloadExecutor` scores a
partitioning after the fact; this package *serves* a query workload
through the partitions.  Per-partition subgraph stores
(:mod:`repro.serving.stores`) materialise interned-id adjacency over one
admission index; a pluggable router
(:mod:`repro.serving.router`) picks the partitions a query starts in;
the engine (:mod:`repro.serving.engine`) expands embeddings
partition-locally and charges an explicit **hop** whenever expansion
follows a border edge — on full enumeration the hop total of a query is
bit-identical to the executor's ``cut_traversals``.  A ``(query, root)``
result cache (:mod:`repro.serving.cache`) composes with
``StreamingPartitioner.ingest_batch``, and one traffic driver
(:mod:`repro.serving.traffic`) measures wall-clock throughput and latency
percentiles against the engine or a live shard cluster alike.

Quickstart (see ``examples/serving_demo.py`` for a narrated version)::

    from repro.serving import ServingEngine, TrafficDriver

    engine = ServingEngine(graph, state, workload, router="candidate-count")
    report = engine.execute_workload()      # hops == executor cut_traversals
    driver = TrafficDriver(engine, seed=0, zipf_s=1.1)
    print(driver.run(1000, inflight=1).as_dict())  # queries/s, p50/p95/p99, hops
"""

from repro.serving.cache import ResultCache, affected_roots
from repro.serving.engine import (
    QueryServeReport,
    RootResult,
    ServeReport,
    ServingEngine,
)
from repro.serving.router import (
    Router,
    available_routers,
    create_router,
    register_router,
)
from repro.serving.stores import (
    PartitionStore,
    RoutingIndex,
    ServingStores,
    ShardStores,
)
from repro.serving.traffic import TrafficDriver, TrafficReport, sample_requests

__all__ = [
    "PartitionStore",
    "QueryServeReport",
    "ResultCache",
    "RootResult",
    "Router",
    "RoutingIndex",
    "ServeReport",
    "ServingEngine",
    "ServingStores",
    "ShardStores",
    "TrafficDriver",
    "TrafficReport",
    "affected_roots",
    "available_routers",
    "create_router",
    "register_router",
    "sample_requests",
]
