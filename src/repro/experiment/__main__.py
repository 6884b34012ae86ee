"""CLI: ``python -m repro.experiment {run,report,gate,ls,trend}``.

The verbs CI (and anyone reproducing a figure) needs::

    python -m repro.experiment run --spec experiments/nightly.toml --db results.db
    python -m repro.experiment gate --db results.db
    python -m repro.experiment report --db results.db --html report.html
    python -m repro.experiment ls --db results.db
    python -m repro.experiment trend edges_per_sec --db results.db

``trend`` reads **all** historical rows per trial id (not just the
latest, like every other verb) and renders each trajectory as a
sparkline — the benchmark-drift view over the append-only history.

``run`` is resumable (completed trials are skipped) and exits nonzero
when any trial failed, *after* running everything — fault isolation means
one crashing trial never blocks the rest.  ``gate`` and ``report`` read
the spec back from the DB unless ``--spec`` overrides it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiment.db import ResultsDB
from repro.experiment.gate import gate_experiment, load_spec_for_gate
from repro.experiment.report import html_report, markdown_report
from repro.experiment.runner import run_experiment
from repro.experiment.spec import SpecError, load_spec


def _cmd_run(args) -> int:
    spec, modules = load_spec(args.spec)
    summary = run_experiment(
        spec, args.db, module_refs=modules, workers=args.workers
    )
    print(
        f"{spec.name}: {summary.executed} executed, {summary.skipped} skipped, "
        f"{summary.failed} failed (db: {args.db})"
    )
    return 1 if summary.failed else 0


def _cmd_gate(args) -> int:
    with ResultsDB(args.db) as db:
        try:
            spec = load_spec_for_gate(db, args.spec, args.experiment)
        except ValueError as exc:
            print(f"gate: {exc}", file=sys.stderr)
            return 1
        return gate_experiment(db, spec)


def _cmd_report(args) -> int:
    with ResultsDB(args.db) as db:
        try:
            spec = load_spec_for_gate(db, args.spec, args.experiment)
        except ValueError as exc:
            print(f"report: {exc}", file=sys.stderr)
            return 1
        markdown = markdown_report(db, spec)
        if args.markdown is not None:
            Path(args.markdown).write_text(markdown, encoding="utf-8")
            print(f"written: {args.markdown}")
        if args.html is not None:
            Path(args.html).write_text(html_report(db, spec), encoding="utf-8")
            print(f"written: {args.html}")
        if args.markdown is None and args.html is None:
            print(markdown, end="")
    return 0


def _cmd_trend(args) -> int:
    from repro.bench.charts import sparkline
    from repro.obs.format import render_table

    with ResultsDB(args.db) as db:
        trial_ids = (
            [args.trial]
            if args.trial
            else db.trial_ids_with_metric(args.metric, experiment=args.experiment)
        )
        rows = []
        for trial_id in trial_ids:
            history = db.metric_history(
                trial_id, args.metric, experiment=args.experiment
            )
            if not history:
                continue
            values = [value for _, value in history]
            first, last = values[0], values[-1]
            rows.append(
                {
                    "trial": trial_id,
                    "runs": len(values),
                    "first": round(first, 3),
                    "last": round(last, 3),
                    "delta %": round(100.0 * (last - first) / first, 1) if first else "-",
                    "trend": sparkline(values, width=args.width),
                }
            )
        if not rows:
            print(f"trend: no numeric history for metric {args.metric!r}", file=sys.stderr)
            return 1
        for line in render_table(
            rows, ("trial", "runs", "first", "last", "delta %", "trend")
        ):
            print(line)
    return 0


def _cmd_ls(args) -> int:
    with ResultsDB(args.db) as db:
        experiments = db.experiments()
        if not experiments:
            print("(empty results DB)")
            return 0
        for experiment in experiments:
            trials = db.latest_trials(experiment["id"])
            ok = sum(1 for t in trials if t["status"] == "ok")
            failed = len(trials) - ok
            print(
                f"#{experiment['id']} {experiment['name']} "
                f"[{experiment['spec_hash']}]: {ok} ok, {failed} failed"
            )
            if args.trials:
                for row in trials:
                    print(
                        f"    {row['trial_id']:<40} {row['status']:<7} "
                        f"{row['duration_seconds']:.1f}s"
                    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiment",
        description="Matrix experiment runner over the SQLite results DB.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a spec's pending trials")
    run_p.add_argument("--spec", required=True, help="experiment spec (.toml or .json)")
    run_p.add_argument("--db", default="results.db", help="results DB path")
    run_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel trial worker processes (default: min(4, cores))",
    )
    run_p.set_defaults(fn=_cmd_run)

    gate_p = sub.add_parser("gate", help="fail on failed or never-run trials in the latest run")
    gate_p.add_argument("--db", default="results.db")
    gate_p.add_argument("--spec", default=None, help="override the stored spec")
    gate_p.add_argument("--experiment", default=None, help="experiment name (default: latest)")
    gate_p.set_defaults(fn=_cmd_gate)

    report_p = sub.add_parser("report", help="render Markdown / HTML from the DB")
    report_p.add_argument("--db", default="results.db")
    report_p.add_argument("--spec", default=None, help="override the stored spec")
    report_p.add_argument("--experiment", default=None)
    report_p.add_argument("--markdown", default=None, help="write Markdown here")
    report_p.add_argument("--html", default=None, help="write static HTML here")
    report_p.set_defaults(fn=_cmd_report)

    ls_p = sub.add_parser("ls", help="list experiments and trial status")
    ls_p.add_argument("--db", default="results.db")
    ls_p.add_argument("--trials", action="store_true", help="list per-trial rows too")
    ls_p.set_defaults(fn=_cmd_ls)

    trend_p = sub.add_parser(
        "trend", help="one metric's full history per trial, as sparklines"
    )
    trend_p.add_argument("metric", help="flat metric name, e.g. edges_per_sec")
    trend_p.add_argument("--db", default="results.db")
    trend_p.add_argument("--experiment", default=None, help="restrict to one experiment name")
    trend_p.add_argument("--trial", default=None, help="restrict to one trial id")
    trend_p.add_argument("--width", type=int, default=40, help="sparkline width (points kept)")
    trend_p.set_defaults(fn=_cmd_trend)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
