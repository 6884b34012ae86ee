"""WindowedStats: sliding-interval per-query rollups for drift detection.

ROADMAP item 2's re-partitioner needs "query-frequency deltas, rising
hops/query" from live traffic (TAPER, arXiv:1603.04626 §4 builds its
enhancement pass from exactly such summaries; Smart Query Routing,
arXiv:1611.03959, routes on per-partition query statistics).  This class
is that input: per query, over a sliding window of recent intervals —
request count, frequency share, hops/query, and p50/p95 latency.

Intervals advance on *logical* time (a fixed number of recorded
requests), not wall time: interval boundaries are then a pure function
of the request stream, so rollups are deterministic wherever their
inputs are (hops and counts always; latencies are measured wall-side and
carry through as-is — they are reported, never compared bit-for-bit).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List


def _nearest_rank(sorted_values: List[int], q: float) -> int:
    if not sorted_values:
        return 0
    rank = max(1, -(-int(q * len(sorted_values)) // 100))
    return sorted_values[rank - 1]


class WindowedStats:
    __slots__ = ("name", "recorded", "_current", "_closed")

    #: Recorded requests per interval.
    INTERVAL = 256
    #: Closed intervals the window keeps.
    INTERVALS = 4

    def __init__(self, name: str) -> None:
        self.name = name
        self.recorded = 0
        # query -> [count, hops, latencies_us]
        self._current: Dict[str, list] = {}
        self._closed: deque = deque(maxlen=self.INTERVALS)

    def record(self, query: str, hops: int, latency_us: int = 0) -> None:
        row = self._current.get(query)
        if row is None:
            row = self._current[query] = [0, 0, []]
        row[0] += 1
        row[1] += hops
        row[2].append(latency_us)
        self.recorded += 1
        if self.recorded % self.INTERVAL == 0:
            self._closed.append(self._current)
            self._current = {}

    def _window(self) -> List[Dict[str, list]]:
        window = list(self._closed)
        if self._current:
            window.append(self._current)
        return window

    def rollup(self) -> Dict[str, Dict[str, float]]:
        """Per query over the window: requests, frequency (share of all
        windowed requests), hops/query, p50/p95 latency.  Sorted keys."""
        merged: Dict[str, list] = {}
        total = 0
        for interval in self._window():
            for query, (count, hops, latencies) in interval.items():
                row = merged.get(query)
                if row is None:
                    row = merged[query] = [0, 0, []]
                row[0] += count
                row[1] += hops
                row[2].extend(latencies)
                total += count
        out: Dict[str, Dict[str, float]] = {}
        for query in sorted(merged):
            count, hops, latencies = merged[query]
            latencies.sort()
            out[query] = {
                "requests": count,
                "frequency": round(count / total, 4) if total else 0.0,
                "hops": hops,
                "hops_per_query": round(hops / count, 3) if count else 0.0,
                "p50_us": _nearest_rank(latencies, 50),
                "p95_us": _nearest_rank(latencies, 95),
            }
        return out

    def deltas(self) -> Dict[str, Dict[str, float]]:
        """Newest closed interval vs the mean of the older ones — the
        drift signal: positive ``frequency_delta`` / ``hops_delta`` means
        a query is heating up / hopping more.  Empty until two intervals
        have closed."""
        closed = list(self._closed)
        if len(closed) < 2:
            return {}
        newest, older = closed[-1], closed[:-1]
        newest_total = sum(row[0] for row in newest.values())
        older_totals = [sum(row[0] for row in interval.values()) for interval in older]
        queries = set(newest)
        for interval in older:
            queries.update(interval)
        out: Dict[str, Dict[str, float]] = {}
        for query in sorted(queries):
            new_count, new_hops = 0, 0
            if query in newest:
                new_count, new_hops, _ = newest[query]
            old_freq, old_hpq, seen = 0.0, 0.0, 0
            for interval, total in zip(older, older_totals):
                if query in interval and total:
                    count, hops, _ = interval[query]
                    old_freq += count / total
                    old_hpq += hops / count
                    seen += 1
            old_freq = old_freq / len(older)
            old_hpq = old_hpq / seen if seen else 0.0
            new_freq = new_count / newest_total if newest_total else 0.0
            new_hpq = new_hops / new_count if new_count else 0.0
            out[query] = {
                "frequency_delta": round(new_freq - old_freq, 4),
                "hops_delta": round(new_hpq - old_hpq, 3),
            }
        return out

    def as_metrics(self) -> Dict[str, float]:
        """The rollup flattened to dotted names (what the registry
        snapshot exports and the experiment DB stores)."""
        out: Dict[str, float] = {"total_requests": self.recorded}
        for query, row in self.rollup().items():
            for key, value in row.items():
                out[f"{query}.{key}"] = value
        return out


class NullWindow:
    __slots__ = ()

    def record(self, query: str, hops: int, latency_us: int = 0) -> None:
        pass

    def rollup(self) -> Dict[str, Dict[str, float]]:
        return {}

    def deltas(self) -> Dict[str, Dict[str, float]]:
        return {}

    def as_metrics(self) -> Dict[str, float]:
        return {}


NULL_WINDOW = NullWindow()
