"""The traced run: untraced and traced trials of the workload, then layer passes.

End-to-end numbers never come from here.  A few untraced trials yield the
wall-clock metrics that carry no bound; one traced trial (spans around
every call into a layer) yields the trace file, its span coverage and the
tracing overhead against them.  The *layer passes* then drive one layer at
a time over the same inputs — in-process twins isolate what the live path
hides (a matcher-only pass under Loom, ``serve_root`` under a live request,
``ServingEngine.ingest`` under a live ingest round) — so every per-layer
metric exists on every workload, whichever layers the workload itself
exercises.  Durations are ``perf_counter`` wall; each pass runs once, so
these numbers are noisier than medians over trials.
"""

from __future__ import annotations

import gc
import pickle
import statistics
import time
from pathlib import Path
from typing import Dict, List

from e2e_trace import Tracer
from e2e_workloads import (
    BATCH_EDGES,
    K,
    NUM_SHARDS,
    WINDOW_DIVISOR,
    Bench,
    Checks,
    Trial,
    Workload,
    new_partitioner,
    reap_stray_servers,
    timings,
)

from repro.core.matching import StreamMatcher
from repro.graph.labelled_graph import LabelledGraph
from repro.partitioning.metrics import imbalance
from repro.partitioning.state import PartitionState
from repro.query.executor import WorkloadExecutor
from repro.runtime.messages import EdgeUpdate, QueryRequest, StepReply, StepRequest
from repro.serving import ServingEngine
from repro.serving.execution import CompiledPlan, Continuation, LiteralSegment

UNTRACED_TRIALS = 3  # behind the wall-clock metrics of the traced run
LAYER_REQUESTS = 1_000  # requests per serving pass
LIVE_ROUNDS = 6  # ingest rounds of the live-ingest pass
LIVE_BURST = 50  # requests after each of those rounds (fills the cache)
ROUTE_REPEATS = 2_000
MESSAGE_REPEATS = 200


def _evict_own_cluster(matcher: StreamMatcher) -> None:
    """``bench_matcher.py``'s stand-in for allocation: drop the oldest
    edge's own match cluster, which keeps the window at capacity."""
    eviction = matcher.next_eviction()
    if eviction.matches:
        matcher.remove_cluster(eviction.matches[0].edges)
    else:
        matcher.remove_cluster({eviction.ekey})


def ingest_pass(bench: Bench, system: str):
    """(partitioner, its timings) for one bare pass over the stream."""
    gc.collect()
    timings = Trial()
    return bench.ingest_bare(timings, system), timings


def serve_pass(bench: Bench, server, requests, span: str) -> Trial:
    answers = Trial()
    bench.serve(server, requests, span, answers)
    return answers


def pass_partitioning(bench: Bench, out: Dict[str, float]) -> Dict[str, PartitionState]:
    """Interning, Hash, LDG, whole Loom and the matcher alone, one pass each."""
    inputs = bench.inputs
    edges = len(inputs.events)

    state = PartitionState.for_graph(K, inputs.graph.num_vertices)
    intern = state.intern
    with bench.tr.span("graph.interning.pass") as interning:
        for event in inputs.events:
            intern(event.u)
            intern(event.v)
    out["graph.intern_us_per_edge"] = interning.seconds / edges * 1e6

    states, passes, partitioners = {}, {}, {}
    for system in ("hash", "ldg", "loom"):
        partitioners[system], passes[system] = ingest_pass(bench, system)
        states[system] = partitioners[system].state
    loom, ldg = passes["loom"], passes["ldg"]
    out["partitioning.ldg.ingest_s"] = ldg.ingest_s
    out["partitioning.ldg.eps"] = edges / ldg.ingest_s
    out["partitioning.hash.eps"] = edges / passes["hash"].ingest_s
    out["core.plan.compile_s"] = loom.setup["create"]
    out["core.loom.ingest_batch_s"] = sum(loom.batch_s)
    out["core.loom.finalize_s"] = loom.ingest_s - sum(loom.batch_s)

    gc.collect()
    matcher = StreamMatcher(partitioners["loom"].plan, edges // WINDOW_DIVISOR)
    evict = lambda: _evict_own_cluster(matcher)  # noqa: E731
    with bench.tr.span("core.matching.pass") as matching:
        for batch in inputs.batches:
            matcher.offer_batch(batch, on_overflow=evict)
        while matcher.pending() > 0:
            _evict_own_cluster(matcher)
    offer_s = matching.seconds
    out["core.matching.offer_s"] = offer_s
    out["core.matching.eps"] = edges / offer_s

    stats = partitioners["loom"].matcher.stats
    bypass_share = stats.edges_bypassed / max(1, stats.edges_offered)
    # What Loom spends beyond matching and beyond LDG-placing the edges that
    # skip the window: the auction, allocation and glue (derived).
    out["core.loom.residual_s"] = loom.ingest_s - offer_s - ldg.ingest_s * bypass_share
    out["core.matching.windowed_share"] = stats.edges_windowed / max(1, stats.edges_offered)
    out["core.matching.matches_per_windowed_edge"] = stats.matches_created / max(
        1, stats.edges_windowed
    )
    out["core.matching.extension_probes"] = stats.extension_probes
    out["core.matching.capped_share"] = stats.capped_registrations / max(1, stats.matches_created)
    out["partitioning.state.imbalance"] = imbalance(states[bench.wl.system], inputs.graph.num_vertices)
    return states


def _mean_us(latencies_s: List[float]) -> float:
    return statistics.fmean(latencies_s) * 1e6 if latencies_s else 0.0


def pass_serving(bench: Bench, state: PartitionState, out: Dict[str, float]):
    """The offline oracle's cost, then the in-process engine: build, route,
    execute, and the cache's hits."""
    inputs = bench.inputs
    with bench.tr.span("query.executor.pass") as oracle:
        WorkloadExecutor(inputs.graph, inputs.workload, embedding_limit=None).execute(state)
    out["query.executor.execute_s"] = oracle.seconds
    gc.collect()

    with bench.tr.span("serving.stores.build") as build:
        engine = ServingEngine(inputs.graph, state, inputs.workload, cache=False)
    out["serving.stores.build_s"] = build.seconds
    requests = bench.requests_for(state, 0, LAYER_REQUESTS)

    labels = [engine.root_label_id(name) for name in engine.query_names()]
    route = engine.router.route
    with bench.tr.span("serving.router.pass") as routing:
        for _ in range(ROUTE_REPEATS):
            for label in labels:
                route(engine.stores, label)
    out["serving.router.route_us"] = routing.seconds / (ROUTE_REPEATS * len(labels)) * 1e6
    out["serving.partitions_contacted_per_query"] = sum(
        entry.frequency * len(route(engine.stores, engine.root_label_id(entry.pattern.name)))
        for entry in inputs.workload
    )

    cold = serve_pass(bench, engine, requests, "serving.engine.serve_root")
    out["serving.engine.execute_us"] = _mean_us(cold.latencies_s)

    cached = ServingEngine(inputs.graph, state, inputs.workload, cache=True)
    first = serve_pass(bench, cached, requests, "serving.engine.serve_root")
    out["serving.cache.hit_rate"] = cached.cache.hit_rate
    second = serve_pass(bench, cached, requests, "serving.engine.serve_root")  # every request hits
    out["serving.engine.hit_us"] = _mean_us(second.latencies_s)
    inproc_us = _mean_us(first.latencies_s) if bench.wl.cache else out["serving.engine.execute_us"]
    return requests, cold.bursts[0], inproc_us


def pass_runtime(bench: Bench, state, requests, expected, inproc_us: float, out, checks: Checks):
    """The same requests through a live cluster; what the queues add."""
    boot = Trial()
    cluster = bench.boot(bench.inputs.graph, state, boot)
    out["runtime.live.boot_s"] = boot.setup["boot"]
    try:
        live = serve_pass(bench, cluster, requests, "runtime.live.serve_root")
        stats = cluster.shard_stats()
        hop_messages = cluster.hop_messages_sent
    finally:
        bench.close(cluster)
    checks.expect(live.bursts[0] == expected, "layer pass: live answers differ from the engine's")
    out["runtime.live.request_us"] = _mean_us(live.latencies_s)
    out["runtime.live.transport_us"] = out["runtime.live.request_us"] - inproc_us
    out["runtime.live.hop_msgs_per_query"] = hop_messages / len(requests)
    load = [s.requests_served + s.steps_executed for s in stats]
    out["runtime.server.request_skew"] = max(load) / (sum(load) / len(load)) if sum(load) else 1.0

    # Representative wire traffic: a root request, a hop and its reply
    # carrying this pass's median-sized answer, and one ingest round.
    plan = CompiledPlan("q", (0, 1, 0, 2), ((), (0,), (1,), (2,)), 3, (0, 1, 2, 3))
    typical = statistics.median(a[2] for a in expected if a is not None)
    segment = LiteralSegment()
    segment.embeddings = [(17, 23 + i, 29, 31 + i) for i in range(int(typical))]
    rows = tuple(
        (i, i % 7, i % K, i + 1, (i + 1) % 7, (i + 1) % K) for i in range(BATCH_EDGES // NUM_SHARDS)
    )
    messages = [
        QueryRequest(1, plan, 17, 3),
        StepRequest(1, 2, plan, Continuation(2, (17, 23, -1, -1), (3, 5, -1, -1), 1, 5)),
        StepReply(1, 2, 0, 9, (segment,), None),
        EdgeUpdate(9, (), rows),
    ]
    with bench.tr.span("runtime.messages.pass") as wire:
        for _ in range(MESSAGE_REPEATS):
            for message in messages:
                pickle.loads(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    out["runtime.messages.roundtrip_us"] = wire.seconds / (MESSAGE_REPEATS * len(messages)) * 1e6
    out["runtime.messages.bytes_per_msg"] = statistics.fmean(
        len(pickle.dumps(m, pickle.HIGHEST_PROTOCOL)) for m in messages
    )


def pass_live_ingest(bench: Bench, out: Dict[str, float], checks: Checks) -> None:
    """The first rounds of the stream three ways — bare partitioner, live
    cluster, engine twin — the last two with the same small burst after
    each round, so there are cached answers for the rounds to invalidate."""
    inputs, tr, wl = bench.inputs, bench.tr, bench.wl
    rounds = inputs.batches[:LIVE_ROUNDS]
    edges = sum(len(batch) for batch in rounds)
    pc, bursts = time.perf_counter, len(bench.request_pool())

    bare = new_partitioner(wl.system, inputs)
    with tr.span(f"{bench.layer}.rounds") as bare_rounds:
        for batch in rounds:
            bare.ingest_batch(batch)

    live, round_s = Trial(), []
    partitioner = new_partitioner(wl.system, inputs)
    cluster = bench.boot(LabelledGraph("live"), partitioner.state, live, partitioner, cache=True)
    try:
        for index, batch in enumerate(rounds):
            t0 = pc()
            cluster.ingest(batch)
            t1 = pc()
            tr.add("runtime.live.ingest", t0, t1, batch=index)
            round_s.append(t1 - t0)
            bench.burst(cluster, partitioner.state, index % bursts, live, LIVE_BURST)
    finally:
        bench.close(cluster)

    twin, twin_s = Trial(), 0.0
    partitioner = new_partitioner(wl.system, inputs)
    engine = ServingEngine(
        LabelledGraph("twin"), partitioner.state, inputs.workload, cache=True, partitioner=partitioner
    )
    for index, batch in enumerate(rounds):
        t0 = pc()
        engine.ingest(batch)
        t1 = pc()
        tr.add("serving.engine.ingest", t0, t1, batch=index)
        twin_s += t1 - t0
        bench.burst(engine, partitioner.state, index % bursts, twin, LIVE_BURST)
    checks.expect(
        live.bursts == twin.bursts, "layer pass: live ingest rounds diverge from the engine twin"
    )

    out["runtime.live.ingest_round_ms"] = statistics.median(round_s) * 1e3
    out["runtime.live.ingest_overhead_x"] = sum(round_s) / bare_rounds.seconds
    out["serving.engine.ingest_us_per_edge"] = twin_s / edges * 1e6
    out["serving.cache.invalidations_per_edge"] = engine.cache.stats()["invalidations"] / edges


def run_traced(wl: Workload, seed: int, trace_path: Path) -> Dict[str, object]:
    """Every per-layer metric for one workload; writes the trace file."""
    tr = Tracer(enabled=True)
    bench = Bench(wl, seed, tr)
    checks = Checks()
    out: Dict[str, float] = {
        "datasets.generate_s": bench.setup["generate"][0],
        "graph.stream.order_s": bench.setup["order"][0],
    }

    tr.enabled = False
    bench.trial()  # warm-up
    untraced = [bench.trial() for _ in range(UNTRACED_TRIALS)]
    tr.enabled = True
    root = len(tr.spans)
    traced = bench.trial()
    for trial in untraced + [traced]:
        checks.expect(trial.error is None, f"trial: {trial.error}")
        checks.expect(trial.bursts == traced.bursts, "traced and untraced answers differ")
    # The wall-clock metrics that carry no bound: from the untraced trials only.
    out.update({name: row["value"] for name, row in timings(bench, untraced).items()})
    busy = statistics.median(t.ingest_s + t.serve_s for t in untraced)
    out["bench.trace_overhead_pct"] = 100.0 * ((traced.ingest_s + traced.serve_s) / busy - 1.0)
    out["bench.span_coverage"] = tr.coverage(root)

    states = pass_partitioning(bench, out)
    state = states[wl.system]
    requests, expected, inproc_us = pass_serving(bench, state, out)
    pass_runtime(bench, state, requests, expected, inproc_us, out, checks)
    pass_live_ingest(bench, out, checks)
    checks.expect(reap_stray_servers() == 0, "a shard server outlived its cluster")

    attempted = sum(t.attempted for t in untraced + [traced]) + checks.attempted
    failed = sum(t.failed for t in untraced + [traced]) + len(checks.failures)
    out["bench.failed_share"] = failed / attempted
    tr.write(trace_path)
    return {
        "metrics": out,
        "attempted": attempted,
        "failed": failed,
        "failures": checks.failures,
        "samples": {"spans": len(tr.spans)},
    }
