"""``python -m repro.partition_cli`` — partition an edge-list file.

The file-facing entry point a downstream user adopts first: bring a graph
(``v``/``e`` format, :mod:`repro.graph.io`) and a workload (``q``/``p``
format, :mod:`repro.query.io`), pick a system, get back a vertex→partition
assignment plus quality numbers.

Example::

    python -m repro.partition_cli graph.txt --workload queries.txt \
        --system loom --k 8 --order random --window 1000 --out assignment.tsv

``--serve N`` runs a closed-loop traffic benchmark *through* the produced
partitioning (:mod:`repro.serving`): N frequency-weighted ``(query,
root)`` requests, up to ``--inflight`` outstanding, routed to start
partitions (``--router``), expanded partition-locally with hop
accounting, optionally cached and Zipf-skewed (``--zipf``); reports
wall-clock queries/s, p50/p95/p99 latency and hops/query.  The in-process
engine serves by default; ``--serve-shards N`` serves the same traffic
through N live shard-server processes (:class:`repro.runtime.LiveCluster`),
where every hop is a message.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from typing import Optional

from repro import obs
from repro.bench.harness import scaled_window
from repro.graph.io import read_graph
from repro.obs.format import print_stats
from repro.graph.stream import stream_edges
from repro.partitioning import registry
from repro.partitioning.metrics import partition_quality_summary
from repro.partitioning.state import PartitionState
from repro.query.executor import WorkloadExecutor
from repro.query.io import read_workload
from repro.serving import ServingEngine, TrafficDriver
from repro.serving.router import available_routers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.partition_cli",
        description="Partition a labelled graph stream, optionally workload-aware (Loom).",
    )
    parser.add_argument("graph", help="graph file in the v/e line format")
    parser.add_argument("--workload", help="workload file in the q/p line format")
    # Choices come from the registry: a strategy registered by a plugin or
    # an importing script is immediately selectable here.
    parser.add_argument("--system", choices=registry.available(), default="loom")
    parser.add_argument("--k", type=int, default=8, help="number of partitions")
    parser.add_argument("--order", choices=["bfs", "dfs", "random"], default="bfs")
    parser.add_argument("--window", type=int, default=None, help="Loom window size (default: 12%% of edges)")
    parser.add_argument("--threshold", type=float, default=0.4, help="motif support threshold T")
    parser.add_argument("--imbalance", type=float, default=1.1, help="capacity slack (= b = nu)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write 'vertex<TAB>partition' lines here")
    parser.add_argument("--execute", action="store_true", help="also execute the workload and report ipt")
    parser.add_argument(
        "--serve",
        type=int,
        default=0,
        metavar="N",
        help="after partitioning, serve N closed-loop (query, root) requests "
        "through the partition-local engine and report wall-clock "
        "queries/s, latency percentiles and hops (requires --workload)",
    )
    parser.add_argument(
        "--serve-shards",
        type=int,
        default=0,
        metavar="N",
        help="serve through N live shard-server processes (the runtime's "
        "ingest-and-serve cluster) instead of the in-process engine; "
        "hops become real inter-process messages (serve mode only)",
    )
    parser.add_argument(
        "--inflight",
        type=int,
        default=8,
        metavar="M",
        help="closed-loop concurrency: up to M requests outstanding at once "
        "(serve mode only; in process they queue at the one engine)",
    )
    parser.add_argument(
        "--router",
        choices=available_routers(),
        default="candidate-count",
        help="start-partition routing policy (serve mode only)",
    )
    parser.add_argument(
        "--zipf",
        type=float,
        default=1.1,
        help="Zipf skew over each query's roots; 0 = uniform (serve mode only)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without the (query, root) result cache",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print matcher/plan counters (plan states, root hits, extension "
        "probes, leaf-gate skips, …) and partitioner counters to stderr",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="enable the repro.obs metrics registry for this run and print "
        "its snapshot to stderr (counters, gauges, latency histograms, "
        "windowed rollups); placements are bit-identical with or without it",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="enable structured tracing (implies --obs) and export the trace "
        "ring as JSONL to PATH; inspect with `python -m repro.obs summarize`",
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.obs or args.trace_out:
        # Enable before any pipeline object exists: components bind their
        # counters (or the free NULL stubs) at construction time.
        obs.enable(trace=bool(args.trace_out))
    if args.system == "loom" and not args.workload:
        print("error: --system loom requires --workload", file=sys.stderr)
        return 2
    if args.serve and not args.workload:
        print("error: --serve requires --workload", file=sys.stderr)
        return 2
    if args.execute and not args.workload:
        print("error: --execute requires --workload", file=sys.stderr)
        return 2
    if args.serve and args.inflight < 1:
        print("error: --inflight must be at least 1", file=sys.stderr)
        return 2

    graph = read_graph(args.graph)
    workload = read_workload(args.workload) if args.workload else None
    print(f"graph: {graph}", file=sys.stderr)
    if workload is not None:
        print(f"workload: {workload}", file=sys.stderr)

    window = args.window if args.window is not None else scaled_window(graph)
    loom_kwargs = {"support_threshold": args.threshold} if args.system == "loom" else {}
    state = PartitionState.for_graph(args.k, graph.num_vertices, args.imbalance)
    partitioner = registry.create(
        args.system,
        state,
        graph=graph,
        workload=workload,
        window_size=window,
        seed=args.seed,
        **loom_kwargs,
    )
    partitioner.ingest_all(stream_edges(graph, args.order, seed=args.seed))

    quality = partition_quality_summary(graph, state)
    for key, value in quality.items():
        print(f"{key}: {value:g}", file=sys.stderr)
    if args.stats:
        tree: dict = {"partitioner": dict(getattr(partitioner, "stats", {}))}
        matcher = getattr(partitioner, "matcher", None)
        if matcher is not None:
            tree["matcher"] = matcher.stats.as_dict()
        print_stats(tree)
    if args.execute:
        report = WorkloadExecutor(graph, workload).execute(state, args.system)
        print(f"weighted_ipt: {report.weighted_ipt:g}", file=sys.stderr)
        print(f"ipt_fraction: {report.ipt_fraction:g}", file=sys.stderr)
        # The truncation roll-up: a binding embedding cap under-counts ipt,
        # so it is printed whenever it fires (and with --stats regardless).
        if report.capped or args.stats:
            names = ", ".join(report.capped_queries) if report.capped else "none"
            print(f"executor.capped_queries: {names}", file=sys.stderr)
    if args.serve:
        if args.serve_shards:
            from repro.runtime.live import LiveCluster

            frontend = LiveCluster(
                graph,
                state,
                workload,
                num_shards=args.serve_shards,
                router=args.router,
                cache=not args.no_cache,
            )
        else:
            frontend = ServingEngine(
                graph, state, workload, router=args.router, cache=not args.no_cache
            )
        with closing(frontend):
            driver = TrafficDriver(frontend, seed=args.seed, zipf_s=args.zipf)
            traffic = driver.run(args.serve, system=args.system, inflight=args.inflight)
            for key, value in traffic.as_dict().items():
                print(f"serve.{key}: {value}", file=sys.stderr)
            if args.stats and args.serve_shards:
                # The whole cluster tree — queue depths, per-shard server
                # snapshots, and (with --obs) the driver-side registry and
                # piggybacked shard StatsReports — through the one
                # formatter every stats surface shares.
                print_stats(frontend.stats(), prefix="serve.cluster")
            elif args.stats:
                serve_report = frontend.execute_workload(args.system)
                print(
                    f"serve.weighted_hops: {serve_report.weighted_hops:g} "
                    "(= weighted_ipt on full enumeration)",
                    file=sys.stderr,
                )
                print(
                    f"serve.partitions_contacted: {serve_report.total_partitions_contacted}",
                    file=sys.stderr,
                )
                print(f"serve.border_edges: {frontend.stores.num_border_edges}", file=sys.stderr)
                if frontend.cache is not None:
                    print_stats(frontend.cache.stats(), prefix="serve.cache")

    if obs.enabled():
        print_stats(obs.snapshot(), prefix="obs")
        if args.trace_out:
            obs.export_trace(args.trace_out)
            print(f"trace written to {args.trace_out}", file=sys.stderr)

    lines = (
        f"{v}\t{state.partition_of(v)}" for v in sorted(graph.vertices(), key=repr)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        print(f"assignment written to {args.out}", file=sys.stderr)
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
