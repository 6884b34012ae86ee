"""Traffic driver: sampled query streams, throughput, latency.

Models the ROADMAP's "heavy traffic" scenario at benchmark scale: one
closed-loop :class:`TrafficDriver` issues ``(query, root)`` requests —
each one user asking for the embeddings of one workload query rooted at
one vertex — against any
:class:`~repro.runtime.frontend.ServingFrontEnd` through its request
protocol, ``submit`` / ``poll_completed``.  Both deployments run that
protocol in the one driver; the in-process
:class:`~repro.serving.engine.ServingEngine`'s transport answers one
request per poll, oldest first, while a
:class:`~repro.runtime.live.LiveCluster` pipelines requests across shard
processes.  Either way every number is wall clock: a hop costs what it
actually cost, a function call in process or a message between processes.

Sampling is frequency-weighted and deterministic: queries are drawn by
their workload frequency, roots by an optional Zipf skew over each query's
root-candidate list (``zipf_s = 0`` is uniform; larger values concentrate
traffic on few roots, which is what makes the result cache earn its keep).
Root candidates are global properties of the graph (label membership), so
two front ends over *different partitionings* of the same graph, or over
different back ends, see the identical request sequence for the same seed
— the property the serving benchmark relies on to compare systems fairly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.serving.execution import RootResult

if TYPE_CHECKING:  # the driver is built on this package's kernels
    from repro.runtime.frontend import ServingFrontEnd


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q ≤ 1) by the nearest-rank method."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 1)))  # ceil without math
    return sorted_values[min(rank, len(sorted_values)) - 1]


def sample_requests(source, n: int, seed: int, zipf_s: float) -> List[Tuple[str, int]]:
    """A deterministic list of ``n`` ``(query name, root id)`` requests.

    ``source`` is anything exposing ``workload`` and
    ``root_candidates(name)`` — a :class:`~repro.serving.engine.ServingEngine`
    or a :class:`~repro.runtime.live.LiveCluster`; both enumerate the same
    global candidate lists, so the same seed yields the identical stream
    against either.  Queries are drawn by workload frequency; per query,
    roots by Zipf weight ``1/(rank+1)^s`` over the sorted candidate list.
    Queries with no root candidates in the stores are excluded (nothing to
    serve), with their weight renormalised over the rest.
    """
    rng = random.Random(seed)
    names: List[str] = []
    weights: List[float] = []
    roots_of: Dict[str, List[int]] = {}
    root_weights: Dict[str, List[float]] = {}
    for entry in source.workload:
        name = entry.pattern.name
        candidates = source.root_candidates(name)
        if not candidates:
            continue
        names.append(name)
        weights.append(entry.frequency)
        roots_of[name] = candidates
        root_weights[name] = [(rank + 1) ** -zipf_s for rank in range(len(candidates))]
    if not names:
        raise ValueError("no workload query has root candidates in the stores")
    picked = rng.choices(names, weights=weights, k=n)
    return [
        (name, rng.choices(roots_of[name], weights=root_weights[name], k=1)[0])
        for name in picked
    ]


@dataclass
class TrafficReport:
    """Outcome of one traffic run against one front end.

    Every cross-partition hop was paid for real inside each request's
    measured latency.  Throughput is requests over *wall* time — with
    ``inflight > 1`` latencies overlap (or, in process, include the wait
    behind the requests queued ahead), so summed latencies would
    overcount.
    """

    system: str
    inflight: int
    requests: int
    wall_seconds: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    embeddings: int
    hops: int
    hop_messages: int
    cache_hits: int
    cache_misses: int
    router: str
    zipf_s: float
    #: Per-query attribution: name → {requests, hops, hops_per_query,
    #: p50_ms, p95_ms}.  This is what lets a benchmark row tie its tail
    #: latency back to the hop count of the query that caused it instead
    #: of reporting one anonymous aggregate.
    per_query: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Each request's result in stream order (``collect_results=True``
    #: only; empty otherwise).  Not part of :meth:`as_dict`.
    results: List[RootResult] = field(default_factory=list)

    @property
    def requests_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return self.requests / self.wall_seconds

    @property
    def hops_per_request(self) -> float:
        return self.hops / self.requests if self.requests else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "system": self.system,
            "inflight": self.inflight,
            "requests": self.requests,
            "queries_per_sec": round(self.requests_per_sec, 1),
            "p50_ms": round(self.p50_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "hops_per_query": round(self.hops_per_request, 4),
            "hops": self.hops,
            "hop_messages": self.hop_messages,
            "embeddings": self.embeddings,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "wall_seconds": round(self.wall_seconds, 4),
            "router": self.router,
            "zipf_s": self.zipf_s,
            "per_query": self.per_query,
        }


class TrafficDriver:
    """Sample a request stream and replay it against one front end.

    The loop is closed: up to ``inflight`` requests are outstanding, and
    a completion immediately admits the next request, so throughput is
    what the back end *can* do at that concurrency.

    Latencies are wall-clock driver-side: from just before submit to
    completion, which includes every queue wait and hop the request
    incurred.  Sampling is the deterministic :func:`sample_requests`
    stream, so runs against different back ends, shard counts or
    partitionings serve the identical request sequence.
    """

    def __init__(
        self,
        frontend: ServingFrontEnd,
        seed: int = 0,
        zipf_s: float = 0.0,
    ) -> None:
        if zipf_s < 0:
            raise ValueError("zipf_s must be non-negative")
        self.frontend = frontend
        self.seed = seed
        self.zipf_s = zipf_s

    # ------------------------------------------------------------------
    def sample(self, n: int) -> List[Tuple[str, int]]:
        """The deterministic request stream (see :func:`sample_requests`)."""
        return sample_requests(self.frontend, n, self.seed, self.zipf_s)

    # ------------------------------------------------------------------
    def run(
        self,
        num_requests: int,
        requests: Optional[Sequence[Tuple[str, int]]] = None,
        system: str = "",
        inflight: int = 8,
        collect_results: bool = False,
    ) -> TrafficReport:
        """Issue the stream at concurrency ``inflight``; returns the report.

        Pass ``requests`` to replay an externally sampled sequence (it
        replaces ``num_requests``) and ``system`` to label the report.
        ``collect_results=True`` additionally keeps each request's
        :class:`~repro.serving.execution.RootResult` in ``report.results``
        (stream order), which is how tests assert bit-identical answers
        across back ends.
        """
        if inflight < 1:
            raise ValueError("inflight must be at least 1")
        if requests is None:
            requests = self.sample(num_requests)
        frontend = self.frontend
        perf_counter = time.perf_counter
        total = len(requests)
        latencies: List[float] = []
        #: stream index → result (``collect_results`` only)
        results: Dict[int, RootResult] = {}
        embeddings = hops = hits = misses = 0
        hop_messages0 = frontend.hop_messages_sent
        #: query name → [request count, hop total, latency list] — the
        #: per-query attribution the report exposes.
        per_query_acc: Dict[str, list] = {}
        obs_window = obs.window("traffic")
        #: request id → (stream index, latency clock start)
        started: Dict[int, Tuple[int, float]] = {}
        submitted = completed = 0
        wall_start = perf_counter()
        while completed < total:
            # Admit requests up to the in-flight cap; each latency clock
            # starts before its submit.
            while submitted < total and submitted - completed < inflight:
                name, root = requests[submitted]
                clock_start = perf_counter()
                started[frontend.submit(name, root)] = (submitted, clock_start)
                submitted += 1
            finished = frontend.poll_completed()
            end = perf_counter()
            for request_id, result, cached in finished:
                index, clock_start = started.pop(request_id)
                latency = end - clock_start
                latencies.append(latency)
                if collect_results:
                    results[index] = result
                embeddings += result.num_embeddings
                hops += result.hops
                name = requests[index][0]
                acc = per_query_acc.get(name)
                if acc is None:
                    acc = per_query_acc[name] = [0, 0, []]
                acc[0] += 1
                acc[1] += result.hops
                acc[2].append(latency)
                obs_window.record(name, result.hops, int(latency * 1e6))
                if cached is True:
                    hits += 1
                elif cached is False:
                    misses += 1
                completed += 1
        wall = perf_counter() - wall_start
        latencies.sort()
        per_query: Dict[str, Dict[str, float]] = {}
        for name in sorted(per_query_acc):
            count, query_hops, query_latencies = per_query_acc[name]
            query_latencies.sort()
            per_query[name] = {
                "requests": count,
                "hops": query_hops,
                "hops_per_query": round(query_hops / count, 4),
                "p50_ms": round(percentile(query_latencies, 0.50) * 1e3, 4),
                "p95_ms": round(percentile(query_latencies, 0.95) * 1e3, 4),
            }
        return TrafficReport(
            system=system,
            inflight=inflight,
            requests=total,
            wall_seconds=wall,
            p50_ms=percentile(latencies, 0.50) * 1e3,
            p95_ms=percentile(latencies, 0.95) * 1e3,
            p99_ms=percentile(latencies, 0.99) * 1e3,
            embeddings=embeddings,
            hops=hops,
            hop_messages=frontend.hop_messages_sent - hop_messages0,
            cache_hits=hits,
            cache_misses=misses,
            router=frontend.router.name,
            zipf_s=self.zipf_s,
            per_query=per_query,
            results=[results[index] for index in range(len(results))],
        )
