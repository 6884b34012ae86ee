"""Observability overhead benchmark: the same work with obs off vs on.

The ``repro.obs`` contract is that telemetry is strictly out-of-band:
instrumented-but-disabled code paths cost two dead method calls on NULL
stubs, and fully enabled metrics + tracing stay within a small single-digit
percentage on the hot loops.  This benchmark *prices* that contract on the
two instrumented legs:

* **ingest** — a full Loom partitioner over a synthetic stream
  (offer/extend/evict plus placement), timing ``ingest_all`` in three
  modes: obs **off** (NULL stubs), **metrics**
  (counters/gauges/windows, no tracing — the budgeted mode),
  and **trace** (metrics plus every structured event);
* **serving** — a closed-loop ``TrafficDriver`` run against a
  ``ServingEngine`` over that partitioning, same three modes, timed on
  the wall clock (``TrafficReport.wall_seconds``).

Each leg asserts bit-identical results across the two modes before any
timing is reported — the ingest leg compares the exported assignment
vector, the serving leg total hops and embeddings — so an observability
change that perturbs placements or answers fails here before it can skew
a headline benchmark.  Overheads are computed on best-of-N per mode
(best-of absorbs scheduler noise better than means) and judged against
``--budget-pct`` (default 2%) on the **metrics** mode — full tracing is
reported alongside but not budgeted (a diagnostic mode, not a production
default).  A single run does not prove that budget: one default run read
7.26% metrics overhead on the serving leg and exited 1, so the verdict
is noise-bound until the budget is re-proved with alternating pairs.

The enabled run's registry snapshot — counters, gauges, and the
``windowed.serving.*`` rollups with their latency percentiles — is
embedded in the results payload.

Run from the repository root::

    python benchmarks/bench_obs_overhead.py    # writes BENCH_obs_overhead.json
    python benchmarks/bench_obs_overhead.py --edges 2000 --requests 400
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

from repro import obs
from repro.graph.stream import stream_to_graph, synthetic_stream
from repro.obs.format import render_table
from repro.partitioning import registry
from repro.partitioning.state import PartitionState
from repro.query.pattern import path_pattern
from repro.query.workload import Workload
from repro.serving import ServingEngine, TrafficDriver

DEFAULT_VERTICES = 900
DEFAULT_EDGES = 5_400
DEFAULT_K = 8
DEFAULT_WINDOW = 650
DEFAULT_REQUESTS = 1_500
DEFAULT_ZIPF = 1.1
DEFAULT_BUDGET_PCT = 2.0

CONFIG_KEYS = ("vertices", "edges", "k", "window", "requests", "zipf", "seed")
MODES = ("off", "metrics", "trace")


def bench_workload() -> Workload:
    """The two-pattern workload Loom runs here.

    The committed ``BENCH_obs_overhead.json`` is comparable to a fresh run
    only while both measure this query mix.
    """
    return Workload(
        [
            (path_pattern(["a", "b", "a", "b"], name="abab"), 0.5),
            (path_pattern(["a", "b", "c"], name="abc"), 0.5),
        ],
        name="bench",
    )


def load_baseline(path):
    """The previously committed results payload, or ``None`` when the file
    is missing or unreadable (first run, CI scratch dirs)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _timed(fn):
    """One gc-quiesced wall timing of ``fn()`` → (seconds, return value)."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    return elapsed, value


def _ingest_once(graph, events, workload, args):
    """Fresh Loom partitioner, full stream → (assignment, nothing timed here)."""
    state = PartitionState.for_graph(args.k, graph.num_vertices)
    partitioner = registry.create(
        "loom",
        state,
        graph=graph,
        workload=workload,
        window_size=args.window,
        seed=args.seed,
    )
    partitioner.ingest_all(events)
    return state.export_assignment()


def _serve_once(graph, state, workload, requests, args):
    """Fresh engine + closed loop over the replayed stream → traffic report.

    The serving leg's denominator is the driver's ``wall_seconds``: the
    whole request loop on the wall clock, so the overhead is exactly what
    the driver's ``queries_per_sec`` loses to instrumentation.
    """
    engine = ServingEngine(graph, state, workload, cache=True)
    driver = TrafficDriver(engine, seed=args.seed, zipf_s=args.zipf)
    return driver.run(0, requests=requests, system="loom")


def mode_order(repeat):
    """The order the modes run in on repeat ``repeat``: :data:`MODES`
    rotated by one per repeat, so each mode leads equally often and no
    mode always runs first after the warm-up or right after another."""
    shift = repeat % len(MODES)
    return MODES[shift:] + MODES[:shift]


def _mode_row(seconds, work, unit):
    best = min(seconds)
    median = statistics.median(seconds)
    return {
        "seconds": round(best, 4),
        "median_seconds": round(median, 4),
        unit: round(work / best, 1),
        "spread_pct": round(100.0 * (median - best) / best, 2) if best else 0.0,
        "repeat_seconds": [round(s, 4) for s in seconds],
    }


def run(args, baseline=None) -> dict:
    workload = bench_workload()
    events = list(synthetic_stream(args.vertices, args.edges, seed=args.seed))
    graph = stream_to_graph(events, name="bench")
    repeats = max(1, args.repeats)

    if obs.enabled():
        raise AssertionError("obs must start disabled for the off-mode timings")

    # Warm-up (untimed, obs off): first-touch costs — import tails, interned
    # label tables, allocator pools — land here instead of skewing whichever
    # mode happens to run first.
    assignment_off = _ingest_once(graph, events, workload, args)
    state = PartitionState.for_graph(args.k, graph.num_vertices)
    partitioner = registry.create(
        "loom", state, graph=graph, workload=workload, window_size=args.window, seed=args.seed
    )
    partitioner.ingest_all(events)
    engine = ServingEngine(graph, state, workload, cache=True)
    requests = TrafficDriver(engine, seed=args.seed, zipf_s=args.zipf).sample(args.requests)
    warm_report = _serve_once(graph, state, workload, requests, args)
    serve_totals_off = (warm_report.hops, warm_report.embeddings)

    # Interleave modes per repeat, rotating which one leads (off, metrics,
    # trace; metrics, trace, off; …) so clock-frequency drift, cache
    # warming and position after the warm-up hit every mode equally over
    # a multiple of three repeats; components bind their counters (real
    # or NULL) at construction, so each call prices exactly the mode in
    # force when it ran.  The ≤2%
    # budget is judged on **metrics** (enabled but unsampled tracing);
    # the trace mode — every serve/hop/batch event recorded — is reported
    # alongside as the price of a full diagnostic run.
    timings = {leg: {mode: [] for mode in MODES} for leg in ("ingest", "serving")}
    snapshot = {}
    for repeat in range(repeats):
        for mode in mode_order(repeat):
            if mode != "off":
                obs.enable(trace=mode == "trace")
            try:
                elapsed, assignment = _timed(
                    lambda: _ingest_once(graph, events, workload, args)
                )
                timings["ingest"][mode].append(elapsed)
                if assignment != assignment_off:
                    raise AssertionError(
                        f"assignment changed in mode {mode!r} — telemetry must "
                        "be strictly out-of-band"
                    )
                _, report = _timed(
                    lambda: _serve_once(graph, state, workload, requests, args)
                )
                # The request loop's wall time, which is the cost the
                # driver's queries_per_sec sees.
                timings["serving"][mode].append(report.wall_seconds)
                if (report.hops, report.embeddings) != serve_totals_off:
                    raise AssertionError(
                        f"served hops/embeddings changed in mode {mode!r} — "
                        "telemetry must be strictly out-of-band"
                    )
                if mode == "metrics":
                    snapshot = obs.snapshot()
            finally:
                if mode != "off":
                    obs.disable()

    work = {"ingest": (args.edges, "edges_per_sec"), "serving": (args.requests, "requests_per_sec")}
    results = {}
    table_rows = []
    worst = 0.0
    for leg, modes in timings.items():
        amount, unit = work[leg]
        off_best = min(modes["off"])
        row = {
            mode: _mode_row(seconds, amount, unit) for mode, seconds in modes.items()
        }
        metrics_pct = 100.0 * (min(modes["metrics"]) - off_best) / off_best
        trace_pct = 100.0 * (min(modes["trace"]) - off_best) / off_best
        worst = max(worst, metrics_pct)
        row["metrics_overhead_pct"] = round(metrics_pct, 2)
        row["trace_overhead_pct"] = round(trace_pct, 2)
        results[leg] = row
        table_rows.append(
            {
                "leg": leg,
                "off_s": row["off"]["seconds"],
                "metrics_s": row["metrics"]["seconds"],
                "trace_s": row["trace"]["seconds"],
                "metrics %": round(metrics_pct, 2),
                "trace %": round(trace_pct, 2),
            }
        )
    results["max_overhead_pct"] = round(worst, 2)
    results["budget_pct"] = args.budget_pct
    results["within_budget"] = worst <= args.budget_pct
    # The enabled snapshot, including the windowed.serving.* rollups.
    results["obs"] = {key: value for key, value in snapshot.items() if not isinstance(value, str)}
    rendered = "\n".join(
        render_table(
            table_rows,
            ("leg", "off_s", "metrics_s", "trace_s", "metrics %", "trace %"),
        )
    )
    results["rendered"] = rendered
    print(rendered)
    print(
        f"max metrics overhead {worst:.2f}% (budget {args.budget_pct:g}%): "
        f"{'within budget' if results['within_budget'] else 'OVER BUDGET'}"
    )
    if baseline is not None:
        base = baseline.get("results", {}).get("max_overhead_pct")
        if isinstance(base, (int, float)):
            print(f"committed baseline max overhead: {base:.2f}%")
    return results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vertices", type=int, default=DEFAULT_VERTICES)
    parser.add_argument("--edges", type=int, default=DEFAULT_EDGES)
    parser.add_argument("--k", type=int, default=DEFAULT_K)
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS)
    parser.add_argument("--zipf", type=float, default=DEFAULT_ZIPF)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=6,
                        help="timings per (leg, mode); overhead compares best-of-N; "
                        "a multiple of three lets each mode lead equally often")
    parser.add_argument("--budget-pct", dest="budget_pct", type=float,
                        default=DEFAULT_BUDGET_PCT,
                        help="the enabled-overhead budget the run is judged against")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent / "BENCH_obs_overhead.json"))
    parser.add_argument("--baseline", default=None,
                        help="previous results file (default: the --out path)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    baseline = load_baseline(args.baseline if args.baseline is not None else args.out)
    try:
        results = run(args, baseline)
    except AssertionError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    payload = {
        "benchmark": "repro.obs enabled-vs-disabled overhead (ingest + serving legs)",
        "config": {key: getattr(args, key) for key in CONFIG_KEYS}
        | {"repeats": args.repeats, "budget_pct": args.budget_pct},
        "python": platform.python_version(),
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"written: {args.out}")
    # Fail loudly when the metrics mode is over budget.
    return 0 if results["within_budget"] else 1


if __name__ == "__main__":
    sys.exit(main())
