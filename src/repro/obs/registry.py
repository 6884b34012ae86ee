"""The metrics registry: counters, gauges, windows and collectors.

Plain-int, lock-free, process-local.  Instruments are memoized by name so
two components naming the same counter share one int; collectors let
existing stat dicts (``MatcherStats``, ``LoomPartitioner.stats``) join
the snapshot lazily — the hot loops keep their bare ``+=`` and the
registry reads them only when someone asks.

Disabled registries hand out shared NULL singletons whose methods are
no-ops.  Components bind instruments once at construction, so the
disabled path is one dead attribute call per batch/request — the
zero-allocation property ``tests/test_obs.py`` gates on.

No locks on purpose: registries are process-local (shard servers and
workers each own theirs; cross-process aggregation travels as
``StatsReport`` wire messages), and all mutators run on the owning
process's single ingest/serve thread.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Union


class Counter:
    """A monotonically increasing int."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time int (queue depth, window fill)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: int) -> None:
        self.value = value

    def high_water(self, value: int) -> None:
        if value > self.value:
            self.value = value


class NullCounter:
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class NullGauge:
    __slots__ = ()

    def set(self, value: int) -> None:
        pass

    def high_water(self, value: int) -> None:
        pass


#: The shared disabled-path singletons.  Identity matters: the overhead
#: gate test asserts a disabled registry hands out exactly these objects.
NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()


class MetricsRegistry:
    """Name → instrument store with lazy collectors and a flat snapshot."""

    __slots__ = ("enabled", "_counters", "_gauges", "_collectors", "_windows")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        # prefix → fn; keyed so a re-constructed component (new matcher per
        # bench repeat) replaces its collector instead of stacking dupes.
        self._collectors: Dict[str, Callable[[], Mapping[str, object]]] = {}
        self._windows: Dict[str, object] = {}

    def counter(self, name: str) -> Union[Counter, NullCounter]:
        if not self.enabled:
            return NULL_COUNTER
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Union[Gauge, NullGauge]:
        if not self.enabled:
            return NULL_GAUGE
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def window(self, name: str):
        """A named :class:`~repro.obs.windowed.WindowedStats` (or the NULL
        stub while disabled)."""
        from repro.obs.windowed import NULL_WINDOW, WindowedStats

        if not self.enabled:
            return NULL_WINDOW
        w = self._windows.get(name)
        if w is None:
            w = self._windows[name] = WindowedStats(name)
        return w

    def register_collector(self, prefix: str, fn: Callable[[], Mapping[str, object]]) -> None:
        """Pull ``fn()``'s dict into every snapshot under ``prefix.`` —
        zero hot-path cost for stats a component already keeps."""
        if self.enabled:
            self._collectors[prefix] = fn

    def snapshot(self) -> Dict[str, object]:
        """Everything, flat, under sorted dotted names.

        Collectors expand to ``<prefix>.<key>``; windows to
        ``windowed.<name>.<query>.*`` (see ``WindowedStats.as_metrics``).
        Key order is sorted, so two runs that counted the same things
        render byte-identical.
        """
        out: Dict[str, object] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.value
        for prefix, fn in self._collectors.items():
            for key, value in fn().items():
                out[f"{prefix}.{key}"] = value
        for name, w in self._windows.items():
            for key, value in w.as_metrics().items():
                out[f"windowed.{name}.{key}"] = value
        return {key: out[key] for key in sorted(out)}

    def render_lines(self, prefix: str = "") -> List[str]:
        from repro.obs.format import render_lines

        return render_lines(self.snapshot(), prefix=prefix)
