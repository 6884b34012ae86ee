"""Matcher-only microbenchmark: the offer/extend/evict loop, no placement.

``bench_throughput.py`` measures whole systems; Loom's row is dominated by
the stream matcher but also pays for LDG placement, the auction and the
partition state.  This benchmark isolates the matcher (the target of the
MotifPlan compile step): a standalone :class:`StreamMatcher` consumes a
synthetic stream, and whenever the window overflows the oldest edge's
single-edge match cluster is removed — the minimal stand-in for Loom's
allocation that keeps the window at capacity and the matchList churning.
No partition state exists, so a regression here is a matcher regression,
full stop.

The stream is offered in ``--batch-size`` chunks through
:meth:`StreamMatcher.offer_batch` — the matcher's one ingest path — and
the per-repeat min/median are reported so the spread is visible next to
the headline (best-of-N hides run-to-run variance).

Run from the repository root::

    python benchmarks/bench_matcher.py             # writes BENCH_matcher.json
    python benchmarks/bench_matcher.py --edges 4000 --window 500 --repeats 2

``gain_vs_baseline`` compares the headline against the previously
committed ``BENCH_matcher.json`` (same caveats as bench_throughput: it is
a cross-run ratio and absorbs machine drift).  CI runs a reduced-scale
pass so matcher regressions fail visibly.
"""

import argparse
import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from bench_util import bench_workload, load_baseline, require_baseline

from repro.experiment.registry import namespace_from_parser, trial

from repro.core.matching import StreamMatcher
from repro.core.motifs import MotifIndex
from repro.core.tpstry import TPSTry
from repro.graph.stream import batched, synthetic_stream

DEFAULT_EDGES = 20_000
DEFAULT_VERTICES = 4_000
DEFAULT_WINDOW = 2_000
DEFAULT_BATCH_SIZE = 2_048


def _evict_cluster(matcher: StreamMatcher) -> None:
    eviction = matcher.next_eviction()
    if eviction.matches:
        matcher.remove_cluster(eviction.matches[0].edges)
    else:
        matcher.remove_cluster({eviction.ekey})


def timed_run(index: MotifIndex, window: int, events, batch_size: int):
    """One pass: offer the stream in chunks; on overflow, evict the oldest
    edge's own cluster; drain at the end."""
    matcher = StreamMatcher(index, window)
    offer_batch = matcher.offer_batch
    overflow = lambda: _evict_cluster(matcher)  # noqa: E731
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for chunk in batched(events, batch_size):
            offer_batch(chunk, on_overflow=overflow)
        while matcher.pending() > 0:
            _evict_cluster(matcher)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    return elapsed, matcher


def run_repeats(index, args, events):
    """All repeats: per-repeat seconds + the last matcher (for stats; every
    repeat's stats are identical by determinism)."""
    seconds = []
    matcher = None
    for _ in range(max(1, args.repeats)):
        elapsed, matcher = timed_run(index, args.window, events, args.batch_size)
        seconds.append(elapsed)
    best = min(seconds)
    median = statistics.median(seconds)
    return {
        "seconds": round(best, 4),
        "median_seconds": round(median, 4),
        "edges_per_sec": round(args.edges / best, 1),
        "median_edges_per_sec": round(args.edges / median, 1),
        "spread_pct": round(100.0 * (median - best) / best, 2) if best else 0.0,
        "repeat_seconds": [round(s, 4) for s in seconds],
    }, matcher


def comparable(baseline, args) -> bool:
    if baseline is None:
        return False
    cfg = baseline.get("config", {})
    keys = ["edges", "vertices", "window", "seed"]
    mismatched = [k for k in keys if cfg.get(k) != getattr(args, k)]
    if mismatched:
        print(
            f"note: baseline config differs on {', '.join(mismatched)}; "
            "gain_vs_baseline omitted",
            file=sys.stderr,
        )
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", type=int, default=DEFAULT_EDGES)
    parser.add_argument("--vertices", type=int, default=DEFAULT_VERTICES)
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
                        help="events per offer_batch chunk")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed passes (headline is best-of-N; the "
                        "median and spread are reported alongside)")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent / "BENCH_matcher.json"))
    parser.add_argument("--baseline", default=None,
                        help="previous results file (default: the --out path)")
    return parser


def run(args, baseline=None) -> dict:
    """Time the matcher over one stream; the results tree."""
    events = list(synthetic_stream(args.vertices, args.edges, seed=args.seed))
    index = MotifIndex(TPSTry.from_workload(bench_workload()), 0.4)

    results, matcher = run_repeats(index, args, events)
    eps = results["edges_per_sec"]
    results["matcher_stats"] = matcher.stats.as_dict()
    note = ""
    if comparable(baseline, args):
        base_eps = baseline.get("results", {}).get("edges_per_sec")
        if base_eps:
            results["baseline_edges_per_sec"] = base_eps
            results["gain_vs_baseline"] = round(eps / base_eps, 3)
            note = f", {eps / base_eps:.2f}x vs committed baseline"
    print(
        f"matcher: {eps:>12,.0f} edges/s best (median "
        f"{results['median_edges_per_sec']:,.0f}, spread {results['spread_pct']:.1f}%; "
        f"{args.edges:,} edges{note})"
    )
    return results


@trial("matcher")
def matcher_trial(ctx):
    """Experiment-service adapter; see ``bench_throughput.throughput_trial``."""
    args = namespace_from_parser(build_parser(), ctx.params, seed=ctx.seed)
    return run(args, require_baseline(args.baseline))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    baseline = load_baseline(args.baseline if args.baseline is not None else args.out)
    results = run(args, baseline)
    payload = {
        "benchmark": "matcher-only offer/extend/evict loop (no placement)",
        "config": {
            "edges": args.edges,
            "vertices": args.vertices,
            "window": args.window,
            "seed": args.seed,
            "repeats": args.repeats,
            "batch_size": args.batch_size,
        },
        "python": platform.python_version(),
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
