"""The experiment service: declarative matrix trials over one results DB.

``fuzzbench``-shaped infrastructure for the repo's evaluation: one
declarative spec (:mod:`repro.experiment.spec`) expands into trials, a
runner (:mod:`repro.experiment.runner`) executes them in parallel worker
processes with per-trial fault isolation, every row lands in an
append-only SQLite results DB (:mod:`repro.experiment.db`), and the
report generator (:mod:`repro.experiment.report`) and gate
(:mod:`repro.experiment.gate`: a failed or never-run trial fails, nothing
else) read the DB instead of ad-hoc JSON files.

The CLI is ``python -m repro.experiment {run,report,gate,ls,trend}``; CI's
nightly matrix and its report go through it (see
``experiments/nightly.toml`` and ARCHITECTURE.md "The experiment
service").
"""

from repro.experiment.db import ResultsDB
from repro.experiment.registry import TrialContext, available_trials, get_trial, trial
from repro.experiment.runner import RunSummary, run_experiment
from repro.experiment.spec import ExperimentSpec, GateSpec, TrialSpec

__all__ = [
    "ExperimentSpec",
    "GateSpec",
    "ResultsDB",
    "RunSummary",
    "TrialContext",
    "TrialSpec",
    "available_trials",
    "get_trial",
    "run_experiment",
    "trial",
]
