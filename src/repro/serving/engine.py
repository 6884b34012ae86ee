"""The in-process query-serving engine.

A query is routed to start partitions (:mod:`repro.serving.router`), root
candidates are scanned from each contacted partition's label index, and
every embedding is expanded partition-locally, charging one **hop** per
data edge between partitions.  The engine compiles the *same* search plan
as the offline :class:`~repro.query.executor.WorkloadExecutor`, so on full
enumeration a query's hop total is bit-identical to its
``cut_traversals`` (``tests/test_serving_equivalence.py``).  Hops are
charged per *completed* embedding, exactly as the executor counts;
``border_expansions`` additionally counts speculative steps that crossed
the border and found no embedding — the serving-only cost an offline
score never sees.

:class:`ServingEngine` is only a constructor: the driver — plans, online
admission, the request protocol, cache accounting, obs — is
:class:`~repro.runtime.frontend.ServingFrontEnd`, which
:class:`~repro.runtime.live.LiveCluster` runs too.  The engine boots it
over a :class:`~repro.runtime.transport.LocalTransport`: one in-process
:class:`~repro.runtime.server.ShardServer` that owns every partition and
holds the adjacency, the ``(query, root)`` result cache
(:mod:`repro.serving.cache`) and its invalidation.
"""

from __future__ import annotations

from typing import Optional, Union

from repro import obs
from repro.graph.labelled_graph import LabelledGraph
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.state import PartitionState
from repro.query.workload import Workload
from repro.runtime.frontend import QueryServeReport, ServeReport, ServingFrontEnd, check_cache_flag
from repro.runtime.messages import ServeSpec
from repro.runtime.server import ShardServer
from repro.runtime.transport import LocalTransport
from repro.serving.router import Router
from repro.serving.stores import RoutingIndex, ShardStores

__all__ = ["QueryServeReport", "ServeReport", "ServingEngine"]


class ServingEngine(ServingFrontEnd):
    """Serve a :class:`Workload` in process, through one shard server.

    The server is shard 0 of 1 — it owns every partition, so no request
    ever hands off a continuation.  ``stores`` is the routing index,
    ``server`` the :class:`~repro.runtime.server.ShardServer` and ``cache``
    its :class:`~repro.serving.cache.ResultCache` (``None`` when off).

    Parameters
    ----------
    graph:
        The live data graph.  For static serving this is the fully
        streamed graph; with ``partitioner`` attached the engine grows it
        edge by edge through :meth:`ingest`.
    state:
        The (shared-interner) partition assignment to serve through.
    workload:
        The queries and their frequencies.
    router:
        A :class:`~repro.serving.router.Router` instance or a router name
        (default ``"candidate-count"``).
    cache:
        Serve through an unbounded ``(query, root)`` result cache.
    partitioner:
        Optional streaming partitioner fed by :meth:`ingest`; it must share
        ``state`` (and therefore the interner) with the engine.
    """

    def __init__(
        self,
        graph: LabelledGraph,
        state: PartitionState,
        workload: Workload,
        router: Union[Router, str] = "candidate-count",
        cache: bool = False,
        partitioner: Optional[StreamingPartitioner] = None,
    ) -> None:
        check_cache_flag(cache)
        index = RoutingIndex(state)
        shard = ShardStores.beside(index, graph)
        super().__init__(
            graph, state, workload, index, router, partitioner, num_shards=1, cache=cache
        )
        spec = ServeSpec(0, 1, state.k, self._query_depths(), self.cache_enabled)
        self.server = ShardServer(spec, shard)
        self.stores = index
        self.cache = self.server.cache
        if self.cache is not None:
            # The cache's own counters, read at snapshot time.
            obs.register_collector("serve.cache", self.cache.stats)
        self._boot(LocalTransport(self.server))
