"""The gate over the results DB: did every gated trial run, and succeed?

``experiment gate`` finds the latest result row of every trial in a spec
and applies one rule:

* a **failed** trial fails the gate (the last line of its traceback is
  echoed, so a missing baseline file is reported by its path),
* a trial with **no row at all** fails the gate (the spec was not run),
* nothing else does.

No number is judged here.  Exact counts are asserted by the trials and
tests that produce them, and wall-clock is decided by alternating
parent/change pairs of ``benchmarks/e2e/run.py`` (see
``benchmarks/e2e/README.md``): a fixed ratio against a committed number
cannot sit between this machine's run-to-run noise and a regression.

The spec is read from the DB's stored canonical JSON by default, so
``gate --db results.db`` needs nothing else; ``--spec`` overrides it.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.experiment.db import ResultsDB
from repro.experiment.spec import ExperimentSpec


def gate_experiment(
    db: ResultsDB,
    spec: ExperimentSpec,
    echo: Callable[[str], None] = print,
) -> int:
    """Judge every gated trial of ``spec``; returns a process exit code."""
    experiment = db.latest_experiment(spec.name)
    if experiment is None:
        echo(f"gate: no experiment named {spec.name!r} in this DB — run the spec first")
        return 1
    rows = {row["trial_id"]: row for row in db.latest_trials(experiment["id"])}

    failures: List[str] = []
    gated = [trial for trial in spec.trials if trial.gate.enabled]
    for trial in gated:
        row = rows.get(trial.trial_id)
        if row is None:
            failures.append(f"{trial.trial_id}: no result row (run the spec first)")
        elif row["status"] != "ok":
            tail = (row["traceback"] or "").strip().splitlines()
            detail = tail[-1] if tail else "no traceback recorded"
            failures.append(f"{trial.trial_id}: trial FAILED — {detail}")

    echo(f"{spec.name} (experiment #{experiment['id']}): {len(gated)} gated trial(s)")
    if failures:
        echo(f"gate FAILED — {len(failures)} problem(s):")
        for failure in failures:
            echo(f"  - {failure}")
        return 1
    echo("gate passed")
    return 0


def load_spec_for_gate(
    db: ResultsDB,
    spec_path: Optional[str] = None,
    experiment_name: Optional[str] = None,
) -> ExperimentSpec:
    """The gate's spec: an explicit file, or the DB's stored canonical JSON."""
    if spec_path is not None:
        from repro.experiment.spec import load_spec

        spec, _ = load_spec(spec_path)
        return spec
    experiment = db.latest_experiment(experiment_name)
    if experiment is None:
        target = f"named {experiment_name!r}" if experiment_name else "at all"
        raise ValueError(f"no experiment {target} in this DB")
    return ExperimentSpec.from_json(experiment["spec_json"])
