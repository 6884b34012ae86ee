"""The five workloads of the e2e benchmark and the trial that runs them.

Every workload is the same pipeline — *stream a graph through a
partitioner, then answer pattern-matching requests over the result* — in
a different deployment shape, so every end-to-end metric exists on every
workload:

``ingest``  each trial streams the graph through a bare partitioner
            (``ingest_batch`` chunks + ``finalize``) and then asks the
            in-process :class:`ServingEngine` over the final state.
``serve``   the graph is partitioned once, in set-up; each trial boots a
            fresh 2-shard :class:`LiveCluster` over that state and spends
            itself on requests.
``mixed``   each trial boots an empty :class:`LiveCluster` with the
            partitioner attached, ingests the stream in rounds and answers
            a burst after each.

Only public entry points are driven, and every layer is measured from
outside by timing those calls: every duration is raw ``perf_counter``
wall, the process runs unpinned, and the collector is left as the program
runs it (``gc.collect()`` between trials only).

**Inputs.**  The graph, its stream order, the partitioner's seed and the
request *multiset* of every burst are the fixed reference input
(:data:`INPUT_SEED`); ``--seed`` drives the order of the requests inside
each burst.  The exact-count metrics (``wipt_vs_hash``, ``hops_per_query``)
are therefore functions of the program alone — the same under every seed —
which is what lets them carry a bound of 0.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing as mp
import random
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from e2e_trace import Tracer

from repro.datasets import load_dataset
from repro.graph.labelled_graph import LabelledGraph
from repro.graph.stream import batched, stream_edges
from repro.partitioning import registry
from repro.partitioning.state import PartitionState
from repro.query.executor import WorkloadExecutor
from repro.runtime.live import LiveCluster
from repro.serving import ServingEngine, sample_requests
from repro.serving.traffic import percentile  # nearest rank; 0.0 on an empty sample

# -- named sizes (recorded in every result set; --agree refuses to compare
# -- sets that disagree on them) --------------------------------------------
DATASET = "musicbrainz"
INPUT_SEED = 7  # dataset generator, stream order, partitioner, request multiset
K = 8
STREAM_ORDER = "bfs"
BATCH_EDGES = 2048
WINDOW_DIVISOR = 8  # Loom window = |E| / 8
NUM_SHARDS = 2  # the smallest topology with real hop messages
SETUP_REPEATS = 6  # generate + order (+ partition) this often, spread over the run
MIN_TRIALS = 5
TRIAL_TIMEOUT_S = 60.0
SERVER_PREFIX = "loom-serve-"


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # "ingest" | "serve" | "mixed"
    system: str  # the partitioner under the stream
    vertices: int
    cache: bool
    zipf: float
    requests: int  # per trial; per burst on the mixed shape
    #: Wall seconds of one timed trial on the reference box; fixes the trial
    #: count for a given ``--seconds``, so one ``--seconds`` always does the
    #: same work.
    nominal_trial_s: float


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ingest-loom", "ingest", "loom", 20_000, False, 0.0, 2_000, 2.0),
        Workload("ingest-ldg", "ingest", "ldg", 20_000, False, 0.0, 2_000, 1.0),
        Workload("serve-live", "serve", "loom", 8_000, False, 0.0, 1_400, 2.0),
        Workload("serve-cached", "serve", "loom", 8_000, True, 1.1, 2_000, 2.0),
        Workload("mixed-live", "mixed", "loom", 8_000, True, 1.1, 100, 2.0),
    )
}


def sizes() -> Dict[str, object]:
    """Everything that must match for two result sets to be comparable."""
    out: Dict[str, object] = {
        "dataset": DATASET,
        "input_seed": INPUT_SEED,
        "k": K,
        "stream_order": STREAM_ORDER,
        "batch_edges": BATCH_EDGES,
        "window_divisor": WINDOW_DIVISOR,
        "num_shards": NUM_SHARDS,
        "inflight": 1,
        "setup_repeats": SETUP_REPEATS,
    }
    for w in WORKLOADS.values():
        out[w.name] = {
            "vertices": w.vertices,
            "system": w.system,
            "cache": w.cache,
            "zipf": w.zipf,
            "requests": w.requests,
            "nominal_trial_s": w.nominal_trial_s,
        }
    return out


def trial_count(workload: Workload, seconds: float) -> int:
    return max(MIN_TRIALS, round(seconds / workload.nominal_trial_s))


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# -- process hygiene ---------------------------------------------------------
class TrialTimeout(BaseException):
    """Raised by the SIGALRM handler.  Not an ``Exception`` on purpose: the
    per-request ``except Exception`` of the serve loop must not swallow it."""


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Bound the wall time of one trial; a stuck queue read becomes a
    recorded failure, not a hang."""

    def _expired(signum, frame):
        raise TrialTimeout(f"trial exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reap_stray_servers() -> int:
    """Shard servers that outlived their cluster: terminate, and count."""
    strays = [p for p in mp.active_children() if p.name.startswith(SERVER_PREFIX)]
    for process in strays:
        process.terminate()
    for process in strays:
        process.join(timeout=10.0)
    return len(strays)


# -- inputs ------------------------------------------------------------------
@dataclass
class Inputs:
    graph: LabelledGraph
    workload: object
    events: list
    batches: List[list]


class CanonicalRoots:
    """A :func:`sample_requests` source whose candidates are *vertices* in
    value order, not interned ids in first-seen order: the request multiset
    must not depend on which stream interned the graph."""

    def __init__(self, source, interner) -> None:
        self.workload = source.workload
        self._roots = {
            name: sorted(interner.vertex(vid) for vid in source.root_candidates(name))
            for name in source.query_names()
        }

    def root_candidates(self, name: str) -> list:
        return self._roots[name]


def layer_of(system: str) -> str:
    return "core.loom" if system == "loom" else f"partitioning.{system}"


def new_partitioner(system: str, inputs: Inputs):
    state = PartitionState.for_graph(K, inputs.graph.num_vertices)
    loom = system == "loom"
    return registry.create(
        system,
        state,
        graph=inputs.graph,
        workload=inputs.workload if loom else None,
        window_size=len(inputs.events) // WINDOW_DIVISOR if loom else None,
        seed=INPUT_SEED,
    )


def assignment_digest(state: PartitionState) -> str:
    """Stable over (vertex, partition) in id order — equal digests mean equal
    placements *and* equal interned ids."""
    return hashlib.sha256(repr(state.export_assignment()).encode()).hexdigest()


# -- one trial ---------------------------------------------------------------
@dataclass
class Placement:
    """A final partition state and what the checks need to know of it."""

    state: PartitionState
    digest: str
    unassigned: int


@dataclass
class Trial:
    """What one trial measured; every duration is ``perf_counter`` wall."""

    attempted: int = 0
    ok: int = 0
    error: Optional[str] = None
    setup: Dict[str, float] = field(default_factory=dict)
    batch_s: List[float] = field(default_factory=list)
    ingest_s: float = 0.0
    edges: int = 0
    requests: int = 0  # sent, answered or not
    serve_s: float = 0.0  # the serve loops, first send to last reply
    latencies_s: List[float] = field(default_factory=list)  # answered requests only
    #: Per burst, per request: ``(query, root id, number of embeddings,
    #: their hash, hops)``, or ``None`` for a request that raised.
    bursts: List[list] = field(default_factory=list)
    placement: Optional[Placement] = None

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    def hops_per_query(self) -> float:
        answers = [a for burst in self.bursts for a in burst if a is not None]
        return sum(a[4] for a in answers) / len(answers) if answers else 0.0


class Bench:
    """One workload under one seed: its inputs, and trials over them."""

    def __init__(self, wl: Workload, seed: int, tr: Optional[Tracer] = None) -> None:
        self.wl = wl
        self.seed = seed
        self.tr = tr if tr is not None else Tracer(False)
        self.layer = layer_of(wl.system)
        #: Wall seconds of every set-up step, one entry per time it ran: per
        #: set-up pass (generate, order, partition) or per trial (the rest).
        self.setup: Dict[str, List[float]] = {
            key: [] for key in ("generate", "order", "create", "partition", "build", "boot")
        }
        #: Serve shape: the set-up's partitioning passes; trials serve the first.
        self.partitioned: List[Trial] = []
        self.inputs = self.set_up()
        self._pool: Optional[List[List[Tuple[str, object]]]] = None
        self._hash_state: Optional[PartitionState] = None
        self.trials_run = 0

    def set_up(self) -> Inputs:
        """Generate, order and — on the serve shape — partition for serving.
        Called :data:`SETUP_REPEATS` times per run."""
        gc.collect()
        with self.tr.span("datasets.generate") as generate:
            dataset = load_dataset(DATASET, self.wl.vertices, seed=INPUT_SEED)
        with self.tr.span("graph.stream.order") as order:
            events = list(stream_edges(dataset.graph, STREAM_ORDER, seed=INPUT_SEED))
        self.setup["generate"].append(generate.seconds)
        self.setup["order"].append(order.seconds)
        inputs = Inputs(dataset.graph, dataset.workload, events, list(batched(events, BATCH_EDGES)))
        if self.wl.shape == "serve":
            done = Trial()
            partitioner = self.ingest_bare(done, inputs=inputs)
            done.placement = self.placement_of(partitioner.state, inputs)
            self.setup["create"].append(done.setup["create"])
            self.setup["partition"].append(done.ingest_s)
            self.partitioned.append(done)
        return inputs

    # -- phases ---------------------------------------------------------
    def create(self, trial: Trial, system: str, inputs: Optional[Inputs] = None):
        """A fresh partitioner over a fresh state (for Loom: trie, motif
        index and compiled plan — set-up, not ingest)."""
        with self.tr.span(f"{layer_of(system)}.create") as watch:
            partitioner = new_partitioner(system, inputs or self.inputs)
        trial.setup["create"] = watch.seconds
        return partitioner

    def ingest_bare(self, trial: Trial, system: str = "", inputs: Optional[Inputs] = None):
        """Fresh partitioner, the whole stream in batches, ``finalize``."""
        system = system or self.wl.system
        inputs = inputs or self.inputs
        tr, layer, pc = self.tr, layer_of(system), time.perf_counter
        partitioner = self.create(trial, system, inputs)
        ingest_batch = partitioner.ingest_batch
        tracing = tr.enabled
        start = pc()
        for index, batch in enumerate(inputs.batches):
            t0 = pc()
            ingest_batch(batch)
            t1 = pc()
            trial.batch_s.append(t1 - t0)
            trial.ok += 1
            if tracing:
                tr.add(f"{layer}.ingest_batch", t0, t1, batch=index)
        t0 = pc()
        partitioner.finalize()
        t1 = pc()
        tr.add(f"{layer}.finalize", t0, t1)
        trial.ingest_s += t1 - start
        trial.ok += 1
        trial.edges = len(inputs.events)
        return partitioner

    def hash_state(self) -> PartitionState:
        """The Hash baseline's placement."""
        if self._hash_state is None:
            partitioner = new_partitioner("hash", self.inputs)
            partitioner.ingest_all(self.inputs.events)
            self._hash_state = partitioner.state
        return self._hash_state

    def request_pool(self) -> List[List[Tuple[str, object]]]:
        """The workload's bursts as (query, root vertex): each burst a fixed
        multiset, sampled once from the full graph's candidates, in this
        seed's order."""
        if self._pool is None:
            with self.tr.span("bench.sample"):
                state, size = self.hash_state(), self.wl.requests
                scout = ServingEngine(self.inputs.graph, state, self.inputs.workload, cache=False)
                bursts = len(self.inputs.batches) + 1 if self.wl.shape == "mixed" else 1
                sample = sample_requests(
                    CanonicalRoots(scout, state.interner), size * bursts, INPUT_SEED, self.wl.zipf
                )
                rng = random.Random(self.seed)
                self._pool = [sample[i * size : (i + 1) * size] for i in range(bursts)]
                for burst in self._pool:
                    rng.shuffle(burst)
        return self._pool

    def requests_for(
        self, state: PartitionState, burst: int = 0, limit: Optional[int] = None
    ) -> List[Tuple[str, int]]:
        """Burst ``burst`` (its first ``limit`` requests) as (query, root
        id), less the roots ``state`` has not placed yet: nobody can ask
        for those."""
        partition_of, id_of = state.partition_of, state.interner.id_of
        return [
            (query, id_of(vertex))
            for query, vertex in self.request_pool()[burst][:limit]
            if partition_of(vertex) is not None
        ]

    def serve(self, server, requests, span: str, trial: Trial) -> None:
        """Closed loop, one request in flight: the next is sent when the
        previous reply has been spliced.  Serving time is the wall of the
        whole loop, failed requests and the driver's own bookkeeping
        included."""
        tr, pc = self.tr, time.perf_counter
        tracing = tr.enabled
        serve_root = server.serve_root
        latencies, burst = trial.latencies_s, []
        start = pc()
        for index, (query, root) in enumerate(requests):
            t0 = pc()
            try:
                result = serve_root(query, root)
            except Exception as exc:  # a failed request has no latency figure
                trial.error = trial.error or f"{type(exc).__name__}: {exc}"
                burst.append(None)
                continue
            t1 = pc()
            latencies.append(t1 - t0)
            # hash() of a tuple of int tuples is value-based and unsalted:
            # equal digests mean equal embeddings, at 1/1000 of the memory.
            burst.append((query, root, len(result.embeddings), hash(result.embeddings), result.hops))
            trial.ok += 1
            if tracing:
                tr.add(span, t0, t1, request=index)
        trial.serve_s += pc() - start
        trial.requests += len(requests)
        trial.bursts.append(burst)

    def burst(self, server, state, index: int, trial: Trial, limit: Optional[int] = None) -> None:
        """Burst ``index`` of the pool, over the roots visible in ``state``."""
        requests = self.requests_for(state, index, limit)
        trial.attempted += len(requests)
        span = (
            "runtime.live.serve_root"
            if isinstance(server, LiveCluster)
            else "serving.engine.serve_root"
        )
        self.serve(server, requests, span, trial)

    def placement_of(self, state: PartitionState, inputs: Optional[Inputs] = None) -> Placement:
        with self.tr.span("bench.digest"):
            vertices = (inputs or self.inputs).graph.num_vertices
            return Placement(state, assignment_digest(state), vertices - state.num_assigned)

    def boot(self, graph, state, trial: Trial, partitioner=None, cache=None) -> LiveCluster:
        with self.tr.span("runtime.live.boot") as watch:
            cluster = LiveCluster(
                graph,
                state,
                self.inputs.workload,
                num_shards=NUM_SHARDS,
                cache=self.wl.cache if cache is None else cache,
                partitioner=partitioner,
                request_timeout=TRIAL_TIMEOUT_S,
            )
        trial.setup["boot"] = watch.seconds
        return cluster

    def close(self, cluster: LiveCluster) -> None:
        with self.tr.span("runtime.live.close"):
            cluster.close()

    # -- the three shapes -----------------------------------------------
    def _trial_ingest(self, trial: Trial) -> None:
        trial.attempted = len(self.inputs.batches) + 1
        partitioner = self.ingest_bare(trial)
        trial.placement = self.placement_of(partitioner.state)
        with self.tr.span("serving.engine.build") as watch:
            engine = ServingEngine(
                self.inputs.graph, partitioner.state, self.inputs.workload, cache=self.wl.cache
            )
        trial.setup["build"] = watch.seconds
        self.burst(engine, partitioner.state, 0, trial)

    def _trial_serve(self, trial: Trial) -> None:
        state = self.partitioned[0].placement.state
        cluster = self.boot(self.inputs.graph, state, trial)
        try:
            self.burst(cluster, state, 0, trial)
        finally:
            self.close(cluster)

    def _trial_mixed(self, trial: Trial) -> None:
        rounds = len(self.inputs.batches)
        trial.attempted = rounds + 1
        tr, pc = self.tr, time.perf_counter
        partitioner = self.create(trial, self.wl.system)
        cluster = self.boot(LabelledGraph("live"), partitioner.state, trial, partitioner)
        try:
            for index, batch in enumerate(self.inputs.batches):
                t0 = pc()
                cluster.ingest(batch)  # returns after the barrier ack: time-to-visible
                t1 = pc()
                tr.add("runtime.live.ingest", t0, t1, batch=index)
                trial.batch_s.append(t1 - t0)
                trial.ingest_s += t1 - t0
                trial.ok += 1
                self.burst(cluster, partitioner.state, index, trial)
            t0 = pc()
            cluster.finalize()
            t1 = pc()
            tr.add("runtime.live.finalize", t0, t1)
            trial.ingest_s += t1 - t0
            trial.ok += 1
            trial.edges = len(self.inputs.events)
            self.burst(cluster, partitioner.state, rounds, trial)
            trial.placement = self.placement_of(partitioner.state)
        finally:
            self.close(cluster)

    # -- driving --------------------------------------------------------
    def trial(self) -> Trial:
        """One full trial.  An exception or a timeout fails its remaining
        operations instead of ending the run."""
        body = {
            "ingest": self._trial_ingest,
            "serve": self._trial_serve,
            "mixed": self._trial_mixed,
        }[self.wl.shape]
        gc.collect()
        trial = Trial()
        index = self.tr.begin("bench.trial", trial=self.trials_run)
        self.trials_run += 1
        try:
            with deadline(TRIAL_TIMEOUT_S):
                body(trial)
        except (Exception, TrialTimeout) as exc:
            trial.error = f"{type(exc).__name__}: {exc}"
            trial.attempted = max(trial.attempted, trial.ok + 1)
        self.tr.end(index)
        for key, value in trial.setup.items():
            self.setup[key].append(value)
        return trial

    # -- in-process references ------------------------------------------
    def reference_engine(self, state: PartitionState) -> Tuple[Trial, ServingEngine]:
        """Burst 0 through a fresh cache-less engine over ``state``."""
        answers = Trial()
        engine = ServingEngine(self.inputs.graph, state, self.inputs.workload, cache=False)
        self.burst(engine, state, 0, answers)
        return answers, engine

    def mixed_twin(self) -> Tuple[Trial, ServingEngine]:
        """The mixed trial through the single-process engine: same rounds,
        same bursts — the lock-step reference for every cluster trial."""
        trial = Trial()
        partitioner = new_partitioner(self.wl.system, self.inputs)
        engine = ServingEngine(
            LabelledGraph("twin"),
            partitioner.state,
            self.inputs.workload,
            cache=self.wl.cache,
            partitioner=partitioner,
        )
        for index, batch in enumerate(self.inputs.batches):
            engine.ingest(batch)
            self.burst(engine, partitioner.state, index, trial)
        engine.finalize()
        self.burst(engine, partitioner.state, len(self.inputs.batches), trial)
        trial.placement = self.placement_of(partitioner.state)
        return trial, engine


# -- checks ------------------------------------------------------------------
@dataclass
class Checks:
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def verify(bench: Bench, trials: List[Trial], checks: Checks) -> Tuple[float, float]:
    """Check the outputs of every trial, the warm-up included; returns the
    exact counts ``(wipt_vs_hash, hops_per_query)``: weighted ipt of the
    final state from the offline executor over Hash's, and the mean hops of
    the trials' (identical) answers."""
    wl, inputs = bench.wl, bench.inputs
    for index, t in enumerate(trials):
        checks.expect(t.error is None, f"trial {index}: {t.error}")
    placements = [t.placement for t in bench.partitioned or trials if t.placement is not None]
    if not placements:
        return 0.0, 0.0
    for index, p in enumerate(placements):
        checks.expect(p.digest == placements[0].digest, f"pass {index}: assignment digest differs")
        checks.expect(p.unassigned == 0, f"pass {index}: {p.unassigned} vertices unassigned")

    reference_state = placements[-1].state  # on the serve shape: one no trial has served
    if wl.shape == "mixed":
        reference, engine = bench.mixed_twin()
        reference_state = reference.placement.state
        checks.expect(
            reference.placement.digest == placements[0].digest,
            "cluster and engine twin placements differ",
        )
    else:
        reference, engine = bench.reference_engine(reference_state)
    for index, t in enumerate(trials):
        checks.expect(
            t.bursts == reference.bursts,
            f"trial {index}: answers differ from the in-process reference",
        )

    executor = WorkloadExecutor(inputs.graph, inputs.workload, embedding_limit=None)
    offline = executor.execute(reference_state, wl.system)
    checks.expect(not offline.capped, "offline executor hit its embedding cap")
    served = engine.execute_workload(wl.system)
    checks.expect(
        served.weighted_hops == offline.weighted_ipt,
        f"engine weighted hops {served.weighted_hops} != offline ipt {offline.weighted_ipt}",
    )
    baseline = executor.execute(bench.hash_state(), "hash").weighted_ipt
    return offline.weighted_ipt / baseline, reference.hops_per_query()


# -- the untraced run: end-to-end metrics ------------------------------------
def peak_rss_mb() -> float:
    """High-water RSS of this process plus the largest reaped child (KiB on Linux)."""
    usage = resource.getrusage
    return (usage(resource.RUSAGE_SELF).ru_maxrss + usage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def timings(bench: Bench, trials: List[Trial]) -> Dict[str, Dict[str, object]]:
    """The wall-clock metrics of ``trials``: value, quartiles and sample
    count of each.  Rates are medians over trials; batch and request times
    are pooled over trials."""
    ingested = bench.partitioned or trials  # serve shape: the set-up passes are its ingest
    ingest_eps = [t.edges / t.ingest_s for t in ingested if t.edges]
    serve_qps = [t.requests / t.serve_s for t in trials if t.requests]
    batch_ms = sorted(s * 1e3 for t in ingested for s in t.batch_s)
    latency_ms = sorted(s * 1e3 for t in trials for s in t.latencies_s)

    def row(value: float, sample: Sequence[float]) -> Dict[str, object]:
        return {"value": value, "quartiles": quartiles(sample), "samples": len(sample)}

    return {
        "ingest_eps": row(median(ingest_eps), ingest_eps),
        "batch_p50_ms": row(percentile(batch_ms, 0.50), batch_ms),
        "batch_p95_ms": row(percentile(batch_ms, 0.95), batch_ms),
        "serve_qps": row(median(serve_qps), serve_qps),
        "serve_p50_ms": row(percentile(latency_ms, 0.50), latency_ms),
        "serve_p99_ms": row(percentile(latency_ms, 0.99), latency_ms),
    }


def setup_seconds(bench: Bench) -> float:
    """Every set-up step at its fastest over the run, summed.  The fastest,
    not the median: on the reference VM a vCPU runs 1.3-1.7x slower for
    seconds at a time whenever its host sibling is busy, which only ever
    adds time.  Over 15 min of a fixed loop cut into 18 s runs of 6 samples,
    the medians of ten runs drifted 14% with the median and 6% with the
    fastest (quartile spread 17-29% against 5-13%)."""
    return sum(min(samples) for samples in bench.setup.values() if samples)


def run_end_to_end(wl: Workload, seed: int, seconds: float) -> Dict[str, object]:
    """Warm-up + timed trials with tracing off: every end-to-end metric,
    and the wall-clock metrics that are reported without a bound."""
    bench = Bench(wl, seed)
    checks = Checks()
    warm_up = bench.trial()  # caches fill, lazy set-up finishes, the heap grows
    checks.expect(reap_stray_servers() == 0, "the warm-up left a shard server behind")
    trials: List[Trial] = []
    for index in range(trial_count(wl, seconds)):
        if index < SETUP_REPEATS - 1:
            bench.set_up()  # between trials, so that the repeats sample the whole run
        trials.append(bench.trial())
    checks.expect(reap_stray_servers() == 0, "a shard server outlived its cluster")
    rss = peak_rss_mb()  # before the offline oracle, which dwarfs the program
    everything = [warm_up] + trials
    wipt_vs_hash, hops_per_query = verify(bench, everything, checks)
    return {
        "metrics": {
            "setup_s": setup_seconds(bench),
            "wipt_vs_hash": wipt_vs_hash,
            "hops_per_query": hops_per_query,
            "peak_rss_mb": rss,
        },
        "reported": timings(bench, trials),
        "attempted": sum(t.attempted for t in everything) + checks.attempted,
        "failed": sum(t.failed for t in everything) + len(checks.failures),
        "failures": checks.failures,
        "samples": {
            "trials": len(trials),
            "setup": {key: len(v) for key, v in bench.setup.items() if v},
        },
    }


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return list(values) * 3
    return statistics.quantiles(values, n=4)
