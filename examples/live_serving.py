"""Live serving: shard-server processes that ingest and answer at once.

Boots a :class:`~repro.runtime.live.LiveCluster` — real long-lived
shard-server processes, each owning the serving stores of its partitions
— over the figure-1 running example and walks the layer's three claims:

1. quiesced, the distributed answers are **bit-identical** to the
   single-process engine and the hop total still equals the offline
   executor's inter-partition traversals (the paper's ipt) — except now
   each cross-partition hop was an actual inter-process message,
2. interleaved ingest/serve in lock-step keeps the same guarantee while
   the distributed cache invalidates across shard boundaries,
3. live traffic — a closed loop with overlapping in-flight requests.

Run:  python examples/live_serving.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets.figure1 import figure1_graph, figure1_workload
from repro.graph.labelled_graph import LabelledGraph
from repro.graph.stream import batched, stream_edges
from repro.partitioning import registry
from repro.partitioning.state import PartitionState
from repro.query.executor import WorkloadExecutor
from repro.runtime import LiveCluster
from repro.serving import ServingEngine, TrafficDriver


def main() -> None:
    graph = figure1_graph()
    workload = figure1_workload()
    events = list(stream_edges(graph, "bfs", seed=0))
    print(f"graph: {graph}")
    print(f"workload: {workload}\n")

    # Partition once; the cluster serves *through* the produced state.
    state = PartitionState.for_graph(2, graph.num_vertices)
    partitioner = registry.create(
        "loom", state, graph=graph, workload=workload, window_size=8, seed=0
    )
    partitioner.ingest_all(events)

    # 1. Quiesced equivalence: distributed execution == engine == executor.
    offline = WorkloadExecutor(graph, workload, embedding_limit=None).execute(state, "loom")
    engine_report = ServingEngine(graph, state, workload).execute_workload("loom")
    with LiveCluster(graph, state, workload, num_shards=2) as cluster:
        live_report = cluster.execute_workload("loom")
        hop_messages = cluster.hop_messages_sent
    assert live_report.weighted_hops == offline.weighted_ipt
    assert [r.hops for r in live_report.queries] == [r.hops for r in engine_report.queries]
    print("quiesced, 2 shard servers:")
    print(f"  weighted hops  {live_report.weighted_hops:.2f}  == offline weighted ipt")
    print(f"  hop messages   {hop_messages}  (each a real StepRequest/StepReply pair)")

    # 2. Interleaved ingest/serve, lock-step: stream through the cluster's
    #    own partitioner; every ingest round is a barrier, so the serve
    #    burst after it observes exactly one epoch — bit-identical to the
    #    single-process engine, including the distributed cache's stats.
    print("\ninterleaved (stream in batches of 3, serve burst between):")
    state = PartitionState.for_graph(2, graph.num_vertices)
    partitioner = registry.create(
        "loom", state, graph=graph, workload=workload, window_size=3, seed=0
    )
    with LiveCluster(
        LabelledGraph("live"), state, workload, num_shards=2, partitioner=partitioner
    ) as cluster:
        for i, chunk in enumerate(batched(events, 3)):
            visible = cluster.ingest(chunk)
            # Serve every root twice: the second pass hits whatever the
            # round's distributed invalidation wave left standing.
            for _ in range(2):
                for name in cluster.query_names():
                    for root in cluster.root_candidates(name):
                        cluster.serve_root(name, root)
            stats = cluster.stats()
            print(
                f"  batch {i}: +{visible} visible edges, "
                f"seq {stats['seq']}, hop messages {stats['hop_messages_sent']}"
            )
        cluster.finalize()
        hits = sum(s.cache_stats["hits"] for s in cluster.shard_stats())
        print(f"  finalize: summed shard cache hits {hits}")

    # 3. Live traffic. Closed loop: up to `inflight` requests overlap, so
    #    throughput is requests over wall time.
    print("\nlive traffic (2 shard servers, zipf 1.1):")
    with LiveCluster(graph, state, workload, num_shards=2) as cluster:
        driver = TrafficDriver(cluster, seed=0, zipf_s=1.1)
        closed = driver.run(300, system="loom", inflight=8)
        print(
            f"  closed loop, inflight 8: {closed.requests_per_sec:>8,.0f} q/s, "
            f"p99 {closed.p99_ms:.3f} ms, hit rate {closed.cache_hit_rate:.2f}"
        )


if __name__ == "__main__":
    main()
