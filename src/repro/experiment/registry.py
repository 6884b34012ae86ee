"""The trial-function registry: how benches plug into the runner.

A *trial function* takes a :class:`TrialContext` and returns a (possibly
nested) dict of metrics; the runner flattens it into DB rows.  Benchmark
scripts register themselves with the :func:`trial` decorator::

    from repro.experiment.registry import namespace_from_parser, trial

    @trial("obs-overhead")
    def obs_overhead_trial(ctx):
        args = namespace_from_parser(build_parser(), ctx.params, seed=ctx.seed)
        return run(args, require_baseline(args.baseline))

Registration happens at import time, so a spec lists the modules that
carry its trials (``experiment.trial_modules``) and
:func:`load_trial_modules` imports them — by dotted name for package
modules, by file path for the standalone ``benchmarks/bench_*.py``
scripts (whose parent directory is put on ``sys.path`` first, so their
``bench_util`` sibling imports keep working).  Worker processes run the
same loader, which is what makes the registry available under any
multiprocessing start method.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Sequence

#: The built-in trials (paper figures + synthetic self-test), always loaded.
BUILTIN_TRIAL_MODULES = ("repro.experiment.trials",)

_TRIALS: Dict[str, Callable] = {}
_LOADED_MODULES: Dict[str, None] = {}


@dataclass(frozen=True)
class TrialContext:
    """Everything a trial function may read: its cell of the matrix."""

    trial_id: str
    bench: str
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0


def trial(name: str) -> Callable[[Callable], Callable]:
    """Register ``fn`` as the trial function behind ``bench = name``.

    Re-registration is idempotent on purpose: the same bench module may be
    imported both as a file and as a dotted module in one process.
    """

    def decorate(fn: Callable) -> Callable:
        _TRIALS[name] = fn
        return fn

    return decorate


def get_trial(name: str) -> Callable:
    if name not in _TRIALS:
        raise ValueError(
            f"unknown trial {name!r}; registered: {', '.join(available_trials()) or '(none)'}"
        )
    return _TRIALS[name]


def available_trials() -> Sequence[str]:
    return sorted(_TRIALS)


def load_trial_modules(references: Sequence[str]) -> None:
    """Import every module reference, populating the registry as a side effect."""
    for ref in tuple(BUILTIN_TRIAL_MODULES) + tuple(references):
        if ref in _LOADED_MODULES:
            continue
        if ref.endswith(".py"):
            path = Path(ref).resolve()
            parent = str(path.parent)
            if parent not in sys.path:
                sys.path.insert(0, parent)
            module_name = path.stem
            if module_name not in sys.modules:
                module_spec = importlib.util.spec_from_file_location(module_name, path)
                if module_spec is None or module_spec.loader is None:
                    raise ImportError(f"cannot load trial module {ref}")
                module = importlib.util.module_from_spec(module_spec)
                sys.modules[module_name] = module
                module_spec.loader.exec_module(module)
        else:
            importlib.import_module(ref)
        _LOADED_MODULES[ref] = None


def namespace_from_parser(
    parser: argparse.ArgumentParser,
    params: Mapping[str, object],
    seed: Optional[int] = None,
) -> argparse.Namespace:
    """A bench's parsed-defaults namespace with spec params applied.

    Every param must name an existing option destination — a typo in a
    spec fails loudly instead of silently benchmarking the defaults.  The
    trial's seed is applied unless the spec pinned one explicitly.
    """
    args = parser.parse_args([])
    known = vars(args)
    for key, value in params.items():
        if key not in known:
            raise ValueError(
                f"unknown bench param {key!r}; known: {', '.join(sorted(known))}"
            )
        setattr(args, key, value)
    if seed is not None and "seed" in known and "seed" not in params:
        args.seed = seed
    return args
