"""Small helpers of the standalone ``bench_obs_overhead.py`` script."""

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.query.pattern import path_pattern
from repro.query.workload import Workload


def bench_workload() -> Workload:
    """The two-pattern workload Loom runs in ``bench_obs_overhead.py``.

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


def require_baseline(path):
    """A baseline named by an experiment spec — missing is an *error*.

    The standalone scripts tolerate an absent baseline (first run on a
    scratch machine); a spec that names one expects its gains to gate, so
    a vanished or unreadable file must fail the trial with the missing
    path spelled out, not silently skip gating (or surface later as a
    bare KeyError in the gate).
    """
    if path is None:
        return None
    baseline = load_baseline(path)
    if baseline is None:
        raise FileNotFoundError(f"baseline file missing or unreadable: {path}")
    return baseline
