"""repro.obs — process-local metrics, structured tracing, windowed rollups.

The observability layer ROADMAP items 2 and 3 consume: a metrics registry
(counters, gauges, fixed-bucket histograms), a ring-buffer trace of the
hot boundaries (ingest batches, queue waits, per-query serving lifecycle),
and :class:`~repro.obs.windowed.WindowedStats` sliding-interval rollups
(per-query frequency, hops/query, latency percentiles) — the exact input
a drift detector needs (TAPER, arXiv:1603.04626; Smart Query Routing,
arXiv:1611.03959).

Everything here is strictly out-of-band: telemetry never feeds a
placement, a tie-break or a cache key, so instrumented runs stay
bit-identical to uninstrumented ones.  The only clock read is the
monotonic family (``time.monotonic_ns`` for trace timestamps) — never
calendar time — which is why trace content is deterministic *modulo* the
``ts`` field.

Cost model, budgeted at ≤2% for the enabled metrics mode.
``benchmarks/bench_obs_overhead.py`` prices that budget but does not prove
it: its verdict is one best-of-N wall-clock comparison, and single default
runs read anywhere from below zero to 7.26% on the serving leg.


* Disabled (the default): every accessor returns a shared NULL stub
  whose methods are no-ops — components bind them once at construction,
  so the hot loops pay a dead attribute call per *batch*, never per edge.
* Enabled: counters are plain int attributes; per-edge counts are never
  duplicated into the registry — existing stat dicts (``MatcherStats``,
  ``LoomPartitioner.stats``) are pulled lazily at :func:`snapshot` time
  through registered collectors.

Call :func:`enable` *before* constructing the pipeline (components bind
their instruments at construction time).  ``REPRO_OBS=1`` /
``REPRO_OBS_TRACE=1`` in the environment enable at import — the hook the
subprocess determinism tests and CI smoke use.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Mapping, Optional, Union

from repro.obs.registry import (
    LATENCY_BUCKETS_US,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullCounter,
    NullGauge,
    NullHistogram,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.obs.windowed import NULL_WINDOW, NullWindow, WindowedStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullTracer",
    "NullWindow",
    "Tracer",
    "WindowedStats",
    "LATENCY_BUCKETS_US",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_TRACER",
    "NULL_WINDOW",
    "counter",
    "disable",
    "enable",
    "enabled",
    "export_trace",
    "gauge",
    "histogram",
    "register_collector",
    "registry",
    "snapshot",
    "tracer",
    "window",
]

#: Default trace ring capacity — big enough for a full CI smoke, bounded
#: so a long soak cannot grow without limit (oldest events are dropped).
DEFAULT_TRACE_CAPACITY = 65_536

_registry = MetricsRegistry(enabled=False)
_tracer: Union[Tracer, NullTracer] = NULL_TRACER


def enable(trace: bool = False, trace_capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
    """Switch the process-local registry on (and optionally the tracer).

    Must run before the instrumented components are constructed: they
    bind counters/tracers once, at construction time, so instruments
    created while disabled stay NULL stubs.
    """
    global _registry, _tracer
    if not _registry.enabled:
        _registry = MetricsRegistry(enabled=True)
    if trace and not isinstance(_tracer, Tracer):
        _tracer = Tracer(capacity=trace_capacity)


def disable() -> None:
    """Back to the zero-cost default (fresh disabled registry, NULL tracer)."""
    global _registry, _tracer
    _registry = MetricsRegistry(enabled=False)
    _tracer = NULL_TRACER


def enabled() -> bool:
    return _registry.enabled


def registry() -> MetricsRegistry:
    return _registry


def tracer() -> Union[Tracer, NullTracer]:
    return _tracer


def counter(name: str) -> Union[Counter, NullCounter]:
    return _registry.counter(name)


def gauge(name: str) -> Union[Gauge, NullGauge]:
    return _registry.gauge(name)


def histogram(name: str, buckets=LATENCY_BUCKETS_US) -> Union[Histogram, NullHistogram]:
    return _registry.histogram(name, buckets)


def window(
    name: str, interval: int = 256, intervals: int = 4
) -> Union[WindowedStats, NullWindow]:
    return _registry.window(name, interval, intervals)


def register_collector(prefix: str, fn: Callable[[], Mapping[str, object]]) -> None:
    _registry.register_collector(prefix, fn)


def snapshot() -> Dict[str, object]:
    """The registry's flat, sorted, dotted-name view (see the registry)."""
    return _registry.snapshot()


def export_trace(path: str) -> Optional[int]:
    """Write the trace ring as JSONL; events written, or ``None`` when
    tracing is off (nothing is created)."""
    if isinstance(_tracer, Tracer):
        return _tracer.export_jsonl(path)
    return None


# Environment hook: subprocesses (determinism double-runs, CI smoke)
# opt in without plumbing a flag through every entry point.
if os.environ.get("REPRO_OBS") == "1" or os.environ.get("REPRO_OBS_TRACE") == "1":
    enable(trace=os.environ.get("REPRO_OBS_TRACE") == "1")
