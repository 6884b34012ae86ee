"""Quickstart: the experiment service, end to end in one process tree.

Builds a small declarative spec (a synthetic matrix plus one real paper
figure), runs it through the parallel trial runner into a SQLite
results DB, reruns it to show resume skipping completed trials, injects
a crashing trial to show fault isolation and the gate failing, and
finally renders the Markdown report — the exact pipeline CI drives via
``python -m repro.experiment run/gate/report`` on ``experiments/*.toml``
(see ARCHITECTURE.md, "The experiment service").

Run:  python examples/experiment_run.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiment import ExperimentSpec, ResultsDB, run_experiment
from repro.experiment.gate import gate_experiment
from repro.experiment.report import markdown_report


def main() -> None:
    spec = ExperimentSpec.from_mapping(
        {
            "experiment": {"name": "example", "seed": 0},
            "trial": [
                # A matrix axis expands to one trial per value; the metrics
                # come straight from params.
                {
                    "bench": "synthetic",
                    "matrix": {"k": [2, 3]},
                    "params": {"metrics": {"edges_per_sec": 1000.0}},
                },
                # A real paper experiment (figure 4, pure math — fast),
                # its rendered table stored as a text metric.
                {"bench": "paper", "params": {"experiment": "figure4"}},
            ],
        }
    )
    db_path = str(Path(tempfile.mkdtemp(prefix="experiment_run_")) / "results.db")

    print(f"-- run: {len(spec.trials)} trials -> {db_path} --")
    run_experiment(spec, db_path, workers=2)

    print("\n-- rerun: completed trials are skipped (resume) --")
    run_experiment(spec, db_path, workers=2)

    print("\n-- gate: every trial ran and none failed --")
    with ResultsDB(db_path) as db:
        exit_code = gate_experiment(db, spec)
    print(f"gate exit code: {exit_code}")

    print("\n-- fault isolation: a crashing trial is a failed row, not a dead run --")
    crashing = ExperimentSpec.from_mapping(
        {
            "experiment": {"name": "example-crash", "seed": 0},
            "trial": [
                {"bench": "synthetic", "id": "boom", "params": {"fail": True}},
                {"bench": "synthetic", "id": "survivor"},
            ],
        }
    )
    run_experiment(crashing, db_path, workers=2)
    with ResultsDB(db_path) as db:
        exit_code = gate_experiment(db, crashing)
    print(f"gate exit code with a failed trial: {exit_code}")

    print("\n-- report (Markdown; CI also renders HTML) --")
    with ResultsDB(db_path) as db:
        print(markdown_report(db, spec))


if __name__ == "__main__":
    main()
