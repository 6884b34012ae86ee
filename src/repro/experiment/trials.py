"""Built-in trial functions: the paper experiments and a synthetic probe.

A trial that has a benchmark script lives with it in ``benchmarks/``
(``bench_obs_overhead.py`` registers ``obs-overhead`` on import; specs
list such scripts under ``experiment.trial_modules``).  This module
carries the trials that need no script:

* ``paper`` — any table/figure from :mod:`repro.bench.experiments`
  (``params.experiment`` names it), fed to the DB through
  :meth:`~repro.bench.experiments.ExperimentResult.metrics` so the
  rendered figure rides along as a text metric;
* ``synthetic`` — a deterministic no-op whose metrics come straight from
  its params.  It exists for the test suite and for wiring checks:
  ``fail = true`` exercises failed-row isolation and the gate, and
  ``sleep_ms`` exercises parallelism, all without paying for a real
  benchmark.
"""

from __future__ import annotations

import inspect
import time
from typing import Dict

from repro.experiment.registry import TrialContext, trial


@trial("paper")
def paper_trial(ctx: TrialContext) -> Dict[str, object]:
    """One paper table/figure at a configurable scale, as DB rows.

    Params are filtered against the experiment function's signature so a
    matrix axis over all experiments can share a ``scale`` param even
    though ``figure4`` (pure math) takes none; a param that *no* experiment
    accepts is a typo and fails loudly instead of silently benchmarking the
    defaults.  The trial seed is applied wherever the function accepts one.
    """
    from repro.bench.experiments import EXPERIMENTS

    params = dict(ctx.params)
    name = params.pop("experiment", None)
    if name not in EXPERIMENTS:
        raise ValueError(
            f"params.experiment must name one of: {', '.join(sorted(EXPERIMENTS))}"
        )
    known = {p for fn in EXPERIMENTS.values() for p in inspect.signature(fn).parameters}
    for key in params:
        if key not in known:
            raise ValueError(
                f"unknown bench param {key!r}; known: {', '.join(sorted(known))}"
            )
    fn = EXPERIMENTS[name]
    accepted = set(inspect.signature(fn).parameters)
    kwargs = {key: value for key, value in params.items() if key in accepted}
    if "seed" in accepted:
        kwargs.setdefault("seed", ctx.seed)
    result = fn(**kwargs)
    return result.metrics()


@trial("synthetic")
def synthetic_trial(ctx: TrialContext) -> Dict[str, object]:
    """Deterministic fixture trial: metrics in, metrics out."""
    params = dict(ctx.params)
    if params.get("fail"):
        raise RuntimeError(f"synthetic trial {ctx.trial_id} asked to fail")
    sleep_ms = params.get("sleep_ms", 0)
    if sleep_ms:
        time.sleep(float(sleep_ms) / 1000.0)
    metrics: Dict[str, object] = {"seed": float(ctx.seed)}
    metrics.update(params.get("metrics", {}))
    return metrics
