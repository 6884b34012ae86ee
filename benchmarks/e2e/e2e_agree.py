"""Result sets: sweep the benchmark over seeds, and compare two sweeps.

A *result set* is what the driver collects: for each workload, one run per
seed (each a fresh process), every end-to-end metric per run — plus the
wall-clock metrics the run reports without a bound.  ``sweep`` produces one
and prints, per metric, the median, the quartiles and the spread — the
distance between the first and third quartile as a share of the median —
next to the metric's bound, if it has one.  ``agree`` decides whether two
sets of the same commit tell the same story: timing medians within the
benchmark's own bounds, and the metrics whose bound is 0 — exact counts —
bit-identical run by run.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import e2e_workloads

def environment() -> Dict[str, object]:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "start_method": "fork" if "fork" in mp.get_all_start_methods() else "spawn",
    }


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(result_set: dict, spec: dict) -> bool:
    """Print each metric's median / quartiles / spread; True when every
    bounded spread (``setup_s`` aside, as in the driver) is within its bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload, runs in result_set["runs"].items():
        print(f"\n{workload}  ({len(runs)} runs)")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        columns = {name: [run["metrics"][name]["value"] for run in runs] for name in bounds}
        for name in runs[0].get("reported", {}) if runs else ():
            columns[name] = [run["reported"][name] for run in runs]
        for name, values in columns.items():
            if len(values) < 2:
                print(f"  {name:<14} {values[0]:>12.4f}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            share, bound = spread(values), bounds.get(name)
            flag = f"{bound:>6.2f}" if bound is not None else "  none"
            if bound is not None and name != "setup_s" and share > bound:
                steady, flag = False, flag + "  > bound"
            print(
                f"  {name:<14} {statistics.median(values):>12.4f} "
                f"{q1:>12.4f} {q3:>12.4f} {share:>8.2%} {flag}"
            )
    return steady


def run_once(script: Path, name: str, seed: int, args) -> Tuple[Optional[dict], str]:
    """One run in its own process: (its result line, what went wrong)."""
    command = [sys.executable, str(script), "--workload", name, "--seed", str(seed)]
    command += ["--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None, f"no result (exit {done.returncode})\n{done.stderr}"
    run = json.loads(lines[-1])
    run["seed"] = seed
    if len(lines) > 1 and lines[-2].startswith("# reported "):
        run["reported"] = json.loads(lines[-2][len("# reported ") :])
    return run, f"exit {done.returncode}\n{done.stderr}" if done.returncode else ""


def sweep(args, spec: dict, script: Path) -> int:
    """Run every (workload, seed) pair in its own process, as the driver
    does.  With two ``--out`` files every pair is run twice, back to back,
    the sets taking turns to go first: two sets of one commit that have seen
    the same machine, which is how runs are paired (choosing-metrics §8)."""
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.seeds if args.seeds is not None else 1))
    outs = args.out or [None]
    sets = [
        {
            "benchmark": "benchmarks/e2e",
            "env": environment(),
            "sizes": e2e_workloads.sizes(),
            "seeds": seeds,
            "seconds": args.seconds,
            "trace": args.trace,
            "runs": {name: [] for name in names},
        }
        for _ in outs
    ]
    status = 0
    for name in names:
        for seed in seeds:
            order = sets if seed % 2 == 0 else sets[::-1]
            for result_set in order:
                run, problem = run_once(script, name, seed, args)
                if problem:
                    status = 1
                    print(f"{name} seed {seed}: {problem}", file=sys.stderr)
                if run is not None:
                    result_set["runs"][name].append(run)
                    print(
                        f"{name} seed {seed}: correct={run['correct']} "
                        f"failed={run['failed']}/{run['attempted']}",
                        flush=True,
                    )
    for result_set, out in zip(sets, outs):
        if out:
            with open(out, "w", encoding="utf-8") as f:
                json.dump(result_set, f, indent=1)
                f.write("\n")
        if not args.trace and not summarize(result_set, spec):
            print("\nsome spread exceeds its bound", file=sys.stderr)
            status = 1
    return status


def agree(path_a: str, path_b: str, spec: dict) -> int:
    """0 when the two result sets agree; otherwise name what does not."""
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)
    for key in ("sizes", "seeds", "seconds", "trace"):
        if a[key] != b[key]:
            print(f"refused: the sets differ in {key}: {a[key]!r} vs {b[key]!r}", file=sys.stderr)
            return 2
    if a["env"]["cpus"] != b["env"]["cpus"]:
        print(f"refused: cpus differ: {a['env']['cpus']} vs {b['env']['cpus']}", file=sys.stderr)
        return 2
    disagreements = []
    for workload in a["runs"]:
        runs_a, runs_b = a["runs"][workload], b["runs"].get(workload, [])
        if [r["seed"] for r in runs_a] != [r["seed"] for r in runs_b]:
            disagreements.append(f"{workload}: the sets hold different runs")
            continue
        for run in runs_a + runs_b:
            if not run["correct"]:
                disagreements.append(f"{workload} seed {run['seed']}: {run['failed']} operations failed")
        for meta in spec["end_to_end"]:
            name, bound = meta["name"], meta["bound"]
            values_a = [r["metrics"][name]["value"] for r in runs_a]
            values_b = [r["metrics"][name]["value"] for r in runs_b]
            if bound == 0:  # an exact count: every run must reproduce it
                for run, va, vb in zip(runs_a, values_a, values_b):
                    if va != vb:
                        disagreements.append(f"{name} on {workload} seed {run['seed']}: {va!r} != {vb!r} (exact)")
                continue
            med_a, med_b = statistics.median(values_a), statistics.median(values_b)
            worse = max(med_a, med_b) / min(med_a, med_b) - 1.0
            verdict = "ok" if worse <= bound else "DISAGREE"
            print(f"{workload:<13} {name:<13} A {med_a:>12.4f}  B {med_b:>12.4f}  apart {worse:>7.2%}  bound {bound:.2f}  {verdict}")
            if worse > bound:
                disagreements.append(f"{name} on {workload}: medians {med_a:.4f} vs {med_b:.4f} are {worse:.1%} apart, bound {bound:.0%}")
    for line in disagreements:
        print(f"DISAGREE: {line}", file=sys.stderr)
    return 1 if disagreements else 0
