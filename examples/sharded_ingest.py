"""Quickstart: sharded multi-process ingest, end to end.

Streams a bundled dataset through the sharded runtime at 1, 2 and 4
worker processes, then shows what the merge had to resolve and what the
partitioning quality paid for the parallelism — the trade ARCHITECTURE.md
tabulates at the reference benchmark's scale ("The runtime layer").

Each worker's Loom gates every edge of its slice against the single-edge
motifs: the per-shard `edges_bypassed` (placed at once by LDG, never
windowed) and `root_hits` (passed: windowed and matched) printed below
are that gate's two verdicts.

Run:  python examples/sharded_ingest.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets.registry import load_dataset
from repro.graph.stream import stream_edges
from repro.partitioning.metrics import partition_quality_summary
from repro.runtime import run_sharded


def main() -> None:
    dataset = load_dataset("dblp", 600)
    graph, workload = dataset.graph, dataset.workload
    events = list(stream_edges(graph, "bfs", seed=0))
    print(f"graph: {graph}")
    print(f"workload: {workload}\n")

    for num_shards in (1, 2, 4):
        result = run_sharded(
            events,
            system="loom",
            num_shards=num_shards,
            k=4,
            expected_vertices=graph.num_vertices,
            expected_edges=graph.num_edges,
            workload=workload,
            window_size=200,  # global budget: each worker gets 200/N
            seed=0,
            batch_size=256,
        )
        quality = partition_quality_summary(graph, result.state)
        print(f"shards={num_shards}")
        print(f"  edges per shard:   {result.shard_edge_counts()}")
        print(
            f"  merge:             {result.merge.shared_vertices} shared vertices, "
            f"{result.merge.conflicts} conflicts resolved (lowest-shard)"
        )
        print(f"  aggregate rate:    {result.aggregate_edges_per_second:,.0f} edges/s")
        print(
            f"  quality:           cut_fraction {quality['cut_fraction']:.3f}, "
            f"imbalance {quality['imbalance']:.3f}"
        )
        slices = ", ".join(
            f"shard {r.shard_id}: {r.edges} edges in {r.ingest_seconds:.3f}s"
            for r in result.shard_results
        )
        print(f"  worker timings:    {slices}")
        gates = ", ".join(
            "shard {}: {} bypassed, {} passed".format(
                r.shard_id,
                r.matcher_stats["edges_bypassed"],
                r.matcher_stats["root_hits"],
            )
            for r in result.shard_results
            if r.matcher_stats
        )
        print(f"  single-edge gate:  {gates}\n")

    print(
        "Reading the numbers: one shard reproduces the single-process run\n"
        "exactly; more shards trade partitioning quality (each worker sees\n"
        "only its slice of every neighbourhood) for ingest throughput.  At\n"
        "this toy scale process overhead hides the throughput side.  The\n"
        "same run is available from the CLI:\n"
        "  python -m repro.partition_cli graph.txt --workload q.txt \\\n"
        "      --system loom --shards 4 --merge-rule lowest-shard"
    )


if __name__ == "__main__":
    main()
