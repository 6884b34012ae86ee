"""The repo's reference benchmark: ingest, live serving, and both at once.

One command measures every end-to-end metric of ``BENCHMARK.json`` on one
workload (``--trace 0``) or every per-layer metric (``--trace 1``), checks
the program's outputs, and prints one JSON object as its last line::

    python benchmarks/e2e/run.py --workload serve-live --seed 3 --seconds 12 --trace 0

Without ``--workload`` it sweeps every workload over ``--seeds`` seeds (one
subprocess per run, as the driver does), prints each metric's median,
quartiles and spread against its bound, and with ``--out`` stores the
result set (``--out A.json B.json``: two sets, their runs taking turns);
``--agree A.json B.json`` compares two such sets.  See
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def _import_bench():
    """The benchmark builds nothing, but it does need the program: fail
    with a plain message when the checkout holds only the benchmark."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"error: {src}/repro not found — the benchmark measures the repo's program")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import e2e_agree
    import e2e_layers
    import e2e_workloads

    return e2e_workloads, e2e_layers, e2e_agree


def _fmt(value: float) -> str:
    return f"{value:,.4f}" if abs(value) < 1000 else f"{value:,.1f}"


def run_one(args, spec: dict) -> int:
    workloads, layers, _ = _import_bench()
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if args.trace:
        result = layers.run_traced(wl, args.seed, HERE / "out" / f"trace-{wl.name}.jsonl")
    else:
        result = workloads.run_end_to_end(wl, args.seed, args.seconds)
    strays = workloads.reap_stray_servers()
    if strays:
        result["failures"].append(f"{strays} shard server(s) survived the run")
        result["attempted"] += 1
        result["failed"] += 1

    values = result["metrics"]
    if set(values) != set(units):
        raise SystemExit(
            f"error: measured {sorted(set(values) ^ set(units))} differ from BENCHMARK.json {kind}"
        )
    print(f"# {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# samples: {json.dumps(result['samples'])}")
    for name in units:
        print(f"{name:<44} {_fmt(values[name]):>16} {units[name]}")
    reported = result.get("reported")
    if reported:  # the untraced run also times the workload; those readings carry no bound
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("# wall-clock metrics (no bound; per-layer in a --trace 1 run): value, quartiles, samples")
        for name, row in reported.items():
            quartiles = " / ".join(_fmt(q) for q in row["quartiles"])
            value, unit = _fmt(row["value"]), layer_units[name]
            print(f"{name:<44} {value:>16} {unit:<6} {quartiles}  n={row['samples']}")
        print("# reported " + json.dumps({name: row["value"] for name, row in reported.items()}))
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    failed = result["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: sweep all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--seeds", type=int, default=None, help="sweep: runs per workload, seeds 0..N-1")
    parser.add_argument(
        "--out", nargs="+", metavar="SET.json", help="sweep: write the result set here (two: a pair)"
    )
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.agree:
        _, _, agree = _import_bench()
        return agree.agree(args.agree[0], args.agree[1], spec)
    if args.workload and args.seeds is None:
        return run_one(args, spec)
    _, _, agree = _import_bench()
    return agree.sweep(args, spec, Path(__file__).resolve())


if __name__ == "__main__":
    sys.exit(main())
