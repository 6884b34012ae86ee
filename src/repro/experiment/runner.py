"""The trial runner: expand, skip the done, execute the rest in workers.

Execution contract, in order of importance:

* **Fault isolation.**  A trial that raises records a ``failed`` row with
  its traceback and the run continues; a worker process that *dies*
  (OOM, segfault) is detected by liveness-checking the pool and its
  in-flight trial is recorded as failed.  Nothing a trial does can kill
  the experiment.
* **Resume.**  The (name, spec-hash) pair identifies an experiment; any
  trial whose latest row in that experiment is ``ok`` is skipped, so
  rerunning an interrupted spec finishes only the remainder.  Failed
  trials are retried.
* **Determinism.**  Workers receive fully-expanded tasks (bench name,
  params, per-trial seed from the spec); the runner itself rolls no dice
  and imposes no ordering on results — rows are keyed by trial id, and
  readers never depend on insertion order across trials.

Worker processes are plain ``multiprocessing.Process`` (never a daemonic
pool: a trial may spawn processes of its own — a live cluster — which
daemons may not).  The parent is the only DB writer.
"""

from __future__ import annotations

import contextlib
import io
import multiprocessing as mp
import os
import queue
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiment.db import ResultsDB, flatten_metrics
from repro.experiment.registry import TrialContext, get_trial, load_trial_modules
from repro.experiment.spec import ExperimentSpec

#: Captured per-trial stdout is stored as a text metric, truncated to this.
CAPTURE_LIMIT = 16_000


@dataclass
class TrialOutcome:
    """What one executed trial sent back to the parent."""

    trial_id: str
    bench: str
    params: Dict[str, object]
    seed: int
    status: str
    duration_seconds: float
    metrics: Dict[str, object] = field(default_factory=dict)
    traceback_text: Optional[str] = None


@dataclass
class RunSummary:
    """One ``run_experiment`` invocation's tallies."""

    experiment_id: int
    executed: int = 0
    skipped: int = 0
    failed: int = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0


def execute_trial(task: Dict[str, object]) -> TrialOutcome:
    """Run one task dict through its registered trial function, isolated.

    Shared by the in-process path and the worker processes: every
    exception becomes a ``failed`` outcome carrying the traceback, and
    whatever the trial printed is preserved as the ``captured_output``
    text metric (benches narrate their tables to stdout).
    """
    buffer = io.StringIO()
    start = time.perf_counter()
    metrics: Dict[str, object] = {}
    traceback_text: Optional[str] = None
    status = "ok"
    try:
        fn = get_trial(str(task["bench"]))
        ctx = TrialContext(
            trial_id=str(task["trial_id"]),
            bench=str(task["bench"]),
            params=dict(task["params"]),
            seed=int(task["seed"]),
        )
        with contextlib.redirect_stdout(buffer):
            result = fn(ctx)
        metrics = flatten_metrics(result or {})
    except Exception:
        status = "failed"
        traceback_text = traceback.format_exc()
    duration = time.perf_counter() - start
    captured = buffer.getvalue()
    if captured:
        metrics.setdefault("captured_output", captured[-CAPTURE_LIMIT:])
    return TrialOutcome(
        trial_id=str(task["trial_id"]),
        bench=str(task["bench"]),
        params=dict(task["params"]),
        seed=int(task["seed"]),
        status=status,
        duration_seconds=duration,
        metrics=metrics,
        traceback_text=traceback_text,
    )


def _worker_main(module_refs: List[str], tasks, results) -> None:
    """Worker loop: import the trial modules, drain tasks until the sentinel."""
    load_trial_modules(module_refs)
    while True:
        task = tasks.get()
        if task is None:
            return
        results.put(execute_trial(task))


def default_workers() -> int:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(4, cores))


def _record(db: ResultsDB, experiment_id: int, outcome: TrialOutcome) -> None:
    db.record_trial(
        experiment_id,
        trial_id=outcome.trial_id,
        bench=outcome.bench,
        params=outcome.params,
        seed=outcome.seed,
        status=outcome.status,
        duration_seconds=outcome.duration_seconds,
        metrics=outcome.metrics,
        traceback_text=outcome.traceback_text,
    )


def run_experiment(
    spec: ExperimentSpec,
    db_path: str,
    module_refs: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    echo: Callable[[str], None] = print,
) -> RunSummary:
    """Execute every not-yet-completed trial of ``spec`` into ``db_path``."""
    module_refs = list(module_refs if module_refs is not None else spec.trial_modules)
    load_trial_modules(module_refs)  # fail fast on unknown modules/benches
    with ResultsDB(db_path) as db:
        experiment_id = db.ensure_experiment(spec.name, spec.spec_hash, spec.to_json())
        done = db.completed_trial_ids(experiment_id)
        pending = [t for t in spec.trials if t.trial_id not in done]
        skipped = len(done & {t.trial_id for t in spec.trials})
        summary = RunSummary(experiment_id=experiment_id, skipped=skipped)
        total = len(spec.trials)
        if summary.skipped:
            echo(f"{spec.name}: {summary.skipped}/{total} trials already complete — resuming")
        if not pending:
            echo(f"{spec.name}: nothing to run")
            return summary

        if workers is not None:
            num_workers = workers
        elif spec.workers is not None:
            num_workers = spec.workers
        else:
            num_workers = default_workers()
        num_workers = max(1, min(num_workers, len(pending)))
        if num_workers == 1:
            for trial in pending:
                outcome = execute_trial(trial.task())
                _record(db, experiment_id, outcome)
                summary.executed += 1
                summary.failed += outcome.status == "failed"
                _echo_outcome(echo, summary.executed + summary.skipped, total, outcome)
            return summary

        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        tasks = ctx.Queue()
        results = ctx.Queue()
        for trial in pending:
            tasks.put(trial.task())
        for _ in range(num_workers):
            tasks.put(None)
        processes = [
            ctx.Process(
                target=_worker_main,
                args=(module_refs, tasks, results),
                name=f"experiment-worker-{i}",
            )
            for i in range(num_workers)
        ]
        for process in processes:
            process.start()

        received: Dict[str, TrialOutcome] = {}
        try:
            while len(received) < len(pending):
                try:
                    outcome = results.get(timeout=1.0)
                except queue.Empty:
                    if any(p.is_alive() for p in processes):
                        continue
                    # Every worker exited.  Drain what their feeder threads
                    # flushed before giving up on the stragglers.
                    try:
                        while len(received) < len(pending):
                            outcome = results.get(timeout=0.5)
                            received[outcome.trial_id] = outcome
                            _record(db, experiment_id, outcome)
                            summary.executed += 1
                            summary.failed += outcome.status == "failed"
                            _echo_outcome(
                                echo, summary.executed + summary.skipped, total, outcome
                            )
                    except queue.Empty:
                        pass
                    break
                received[outcome.trial_id] = outcome
                _record(db, experiment_id, outcome)
                summary.executed += 1
                summary.failed += outcome.status == "failed"
                _echo_outcome(
                    echo, summary.executed + summary.skipped, total, outcome
                )
        finally:
            for process in processes:
                process.join(timeout=5.0)
            for process in processes:
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
                    process.join()

        # A worker that died hard took its in-flight trial with it; the
        # row still lands, as a failure naming the casualty.
        for trial in pending:
            if trial.trial_id not in received:
                summary.executed += 1
                summary.failed += 1
                _record(
                    db,
                    experiment_id,
                    TrialOutcome(
                        trial_id=trial.trial_id,
                        bench=trial.bench,
                        params=dict(trial.params),
                        seed=trial.seed,
                        status="failed",
                        duration_seconds=0.0,
                        traceback_text=(
                            "worker process died before reporting a result "
                            "(killed / out of memory?)"
                        ),
                    ),
                )
                echo(f"  {trial.trial_id}: FAILED (worker died)")
        return summary


def _echo_outcome(echo, position: int, total: int, outcome: TrialOutcome) -> None:
    status = "ok" if outcome.status == "ok" else "FAILED"
    echo(
        f"[{position}/{total}] {outcome.trial_id}: {status} "
        f"({outcome.duration_seconds:.1f}s)"
    )
