"""repro.obs: registry, tracing, windowed rollups, formatting, CLI surfaces.

Two properties carry the whole layer and get gated here:

* **Disabled is free.**  A disabled registry hands out the shared NULL
  singletons, whose methods allocate nothing — measured with
  ``sys.getallocatedblocks`` so a regression that sneaks an allocation
  into a stub (a closure, a dict, an f-string) fails a test rather than
  a profile.
* **Enabled is out-of-band.**  Telemetry reads existing state and never
  feeds placements or answers; ``tests/test_obs_determinism.py`` holds
  the subprocess double-run half of that contract, this file the unit
  half (components bind stubs while disabled, real instruments after
  ``enable()``, and snapshots render deterministically sorted).
"""

import gc
import importlib.util
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.datasets.registry import load_dataset
from repro.graph.stream import stream_edges
from repro.obs.format import flatten, render_lines, render_table
from repro.obs.registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, load_jsonl, masked
from repro.obs.windowed import NULL_WINDOW, WindowedStats
from repro.partitioning.state import PartitionState


@pytest.fixture(autouse=True)
def _obs_reset():
    """Every test starts and ends with the process-local obs disabled."""
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("provgen", 300, seed=3)


def _loom_over(dataset, k=4, window=80):
    from repro.core.loom import LoomPartitioner

    state = PartitionState.for_graph(k, dataset.graph.num_vertices)
    partitioner = LoomPartitioner(state, dataset.workload, window_size=window)
    partitioner.ingest_all(stream_edges(dataset.graph, "bfs", seed=3))
    return state, partitioner


class TestRegistry:
    def test_instruments_memoized_by_name(self):
        reg = MetricsRegistry(enabled=True)
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.window("w") is reg.window("w")

    def test_counter_and_gauge(self):
        reg = MetricsRegistry(enabled=True)
        c = reg.counter("c")
        c.inc()
        c.inc(4)
        g = reg.gauge("depth")
        g.set(3)
        g.high_water(7)
        g.high_water(2)  # below the mark: no change
        snap = reg.snapshot()
        assert snap["c"] == 5
        assert snap["depth"] == 7

    def test_histogram_buckets_and_percentiles(self):
        h = Histogram("lat", bounds=(10, 100, 1000))
        for value in (1, 5, 50, 50, 200, 5000):
            h.observe(value)
        # 2 in ≤10, 2 in ≤100, 1 in ≤1000, 1 overflow
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.total == 5306
        assert h.percentile(50) == 100
        # Overflow quotes the last finite bound rather than inventing one.
        assert h.percentile(99) == 1000
        assert h.as_metrics() == {"count": 6, "total": 5306, "p50": 100, "p95": 1000}

    def test_empty_histogram_percentile_zero(self):
        assert Histogram("lat").percentile(95) == 0

    def test_snapshot_flat_and_sorted(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("z.late").inc()
        reg.counter("a.early").inc(2)
        reg.histogram("lat", (10,)).observe(3)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a.early"] == 2
        assert snap["lat.count"] == 1

    def test_collector_replace_semantics(self):
        """Re-registering a prefix replaces the collector — a bench loop
        reconstructing its matcher every repeat must not stack dupes."""
        reg = MetricsRegistry(enabled=True)
        reg.register_collector("m", lambda: {"stale": 1})
        reg.register_collector("m", lambda: {"fresh": 2})
        snap = reg.snapshot()
        assert snap == {"m.fresh": 2}

    def test_disabled_hands_out_null_singletons(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("c") is NULL_COUNTER
        assert reg.gauge("g") is NULL_GAUGE
        assert reg.histogram("h") is NULL_HISTOGRAM
        assert reg.window("w") is NULL_WINDOW

    def test_disabled_collector_is_noop(self):
        calls = []
        reg = MetricsRegistry(enabled=False)
        reg.register_collector("m", lambda: calls.append(1) or {})
        assert reg.snapshot() == {}
        assert calls == []


class TestNullStubCost:
    def test_disabled_stubs_allocate_nothing(self):
        """The zero-allocation gate: a hot loop hammering every disabled
        stub must not grow the interpreter's allocated-block count."""
        stubs = (NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM, NULL_WINDOW, NULL_TRACER)

        def hammer(n):
            counter, gauge, histogram, window, tracer_ = stubs
            for i in range(n):
                counter.inc()
                counter.inc(3)
                gauge.set(i)
                gauge.high_water(i)
                histogram.observe(i)
                window.record("q", 2, i)
                tracer_.event("kind", a=i)

        hammer(64)  # warm caches, intern small ints
        gc.collect()
        before = sys.getallocatedblocks()
        hammer(4096)
        gc.collect()
        after = sys.getallocatedblocks()
        # Allow a couple of blocks of interpreter noise, nothing linear.
        assert after - before <= 4

    def test_null_event_returns_sentinel_id(self):
        assert NULL_TRACER.event("anything", x=1) == -1
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.events() == []

    def test_enabled_flags(self):
        """Hot call sites guard kwargs construction on ``.enabled``."""
        assert Tracer.enabled is True
        assert NullTracer.enabled is False
        assert NULL_TRACER.enabled is False


class TestTracer:
    def test_sequence_ids_and_fields(self):
        t = Tracer()
        first = t.event("a.start", x=1)
        second = t.event("a.end", span=first)
        assert (first, second) == (0, 1)
        events = t.events()
        assert events[0]["kind"] == "a.start"
        assert events[1]["span"] == 0
        assert all(rec["ts"] > 0 for rec in events)

    def test_ring_drops_oldest(self):
        t = Tracer(capacity=4)
        for i in range(10):
            t.event("e", i=i)
        assert len(t) == 4
        assert t.emitted == 10
        assert t.dropped == 6
        assert [rec["i"] for rec in t.events()] == [6, 7, 8, 9]

    def test_export_roundtrip_with_drop_marker(self, tmp_path):
        t = Tracer(capacity=2)
        for i in range(3):
            t.event("e", i=i)
        path = tmp_path / "trace.jsonl"
        assert t.export_jsonl(str(path)) == 2
        events = load_jsonl(str(path))
        assert events[0] == {"i": -1, "kind": "trace.dropped", "n": 1, "ts": 0}
        assert [rec["i"] for rec in events[1:]] == [1, 2]

    def test_masked_strips_only_ts(self):
        t = Tracer()
        t.event("e", value=7)
        [rec] = masked(t.events())
        assert rec == {"i": 0, "kind": "e", "value": 7}


class TestWindowedStats:
    def test_rollup_counts_and_shares(self):
        w = WindowedStats("serving", interval=4, intervals=4)
        for _ in range(3):
            w.record("abc", 2, 10)
        w.record("abab", 6, 30)
        roll = w.rollup()
        assert roll["abc"]["requests"] == 3
        assert roll["abc"]["frequency"] == 0.75
        assert roll["abc"]["hops_per_query"] == 2.0
        assert roll["abab"]["hops"] == 6
        assert roll["abab"]["p50_us"] == 30

    def test_sliding_window_evicts_old_intervals(self):
        w = WindowedStats("serving", interval=2, intervals=2)
        for _ in range(2):
            w.record("old", 1, 1)
        for _ in range(4):
            w.record("new", 1, 1)
        # Two closed 'new' intervals fill the deque; 'old' has slid out.
        assert set(w.rollup()) == {"new"}
        assert w.recorded == 6

    def test_deltas_need_two_closed_intervals(self):
        w = WindowedStats("serving", interval=2, intervals=4)
        w.record("q", 1, 1)
        w.record("q", 1, 1)
        assert w.deltas() == {}

    def test_deltas_flag_heating_query(self):
        w = WindowedStats("serving", interval=4, intervals=4)
        # Interval 1: cold/hot split 3:1; interval 2: 1:3 with longer hops.
        for _ in range(3):
            w.record("cold", 1, 1)
        w.record("hot", 1, 1)
        w.record("cold", 1, 1)
        for _ in range(3):
            w.record("hot", 3, 1)
        deltas = w.deltas()
        assert deltas["hot"]["frequency_delta"] > 0
        assert deltas["cold"]["frequency_delta"] < 0
        assert deltas["hot"]["hops_delta"] > 0

    def test_as_metrics_flat_names(self):
        w = WindowedStats("serving", interval=8)
        w.record("abc", 2, 5)
        metrics = w.as_metrics()
        assert metrics["total_requests"] == 1
        assert metrics["abc.requests"] == 1
        assert metrics["abc.hops_per_query"] == 2.0

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            WindowedStats("w", interval=0)


class TestFormat:
    def test_flatten_nested_and_lists(self):
        flat = flatten({"a": {"b": 1, "c": [1, 2]}, "d": 2.5})
        assert flat == {"a.b": 1, "a.c": "1,2", "d": 2.5}

    def test_flatten_prefix_gets_dot(self):
        """Regression: a bare prefix must join with a dot, not concatenate
        ('obs' + 'windowed…' once rendered as 'obswindowed…')."""
        assert flatten({"x": 1}, prefix="obs") == {"obs.x": 1}
        assert flatten({"x": 1}, prefix="obs.") == {"obs.x": 1}

    def test_render_lines_sorted_and_trimmed_floats(self):
        lines = render_lines({"b": 1.2500, "a": True})
        assert lines == ["a: True", "b: 1.25"]

    def test_render_table_alignment(self):
        lines = render_table([{"k": "x", "n": 10}, {"k": "yy", "n": 5}], ("k", "n"))
        assert lines[0].split() == ["k", "n"]
        assert len(lines) == 4
        assert render_table([], ("k",)) == []


class TestModuleLifecycle:
    def test_starts_disabled(self):
        assert not obs.enabled()
        assert obs.counter("x") is NULL_COUNTER
        assert obs.tracer() is NULL_TRACER

    def test_enable_disable_roundtrip(self):
        obs.enable()
        assert obs.enabled()
        real = obs.counter("x")
        assert real is not NULL_COUNTER
        obs.disable()
        assert obs.counter("x") is NULL_COUNTER

    def test_binding_is_construction_time(self):
        """The documented contract: instruments fetched while disabled
        stay NULL stubs even after a later enable()."""
        bound_early = obs.counter("early")
        obs.enable()
        assert bound_early is NULL_COUNTER
        assert obs.counter("early") is not NULL_COUNTER

    def test_export_trace_none_when_tracing_off(self, tmp_path):
        obs.enable(trace=False)
        assert obs.export_trace(str(tmp_path / "t.jsonl")) is None
        assert not (tmp_path / "t.jsonl").exists()

    def test_export_trace_writes_jsonl(self, tmp_path):
        obs.enable(trace=True)
        obs.tracer().event("e", i=1)
        path = tmp_path / "t.jsonl"
        assert obs.export_trace(str(path)) == 1
        assert load_jsonl(str(path))[0]["kind"] == "e"


class TestComponentBinding:
    def test_loom_binds_null_stubs_while_disabled(self, dataset):
        _, partitioner = _loom_over(dataset)
        assert partitioner._obs_batches is NULL_COUNTER
        assert partitioner._obs_events is NULL_COUNTER
        assert partitioner._obs_window_fill is NULL_GAUGE
        assert partitioner._obs_matchlist_fill is NULL_GAUGE
        assert partitioner._obs_adjacency is NULL_GAUGE
        assert partitioner._trace is NULL_TRACER
        assert partitioner._trace_on is False

    def test_loom_populates_snapshot_when_enabled(self, dataset):
        obs.enable()
        _, partitioner = _loom_over(dataset)
        snap = obs.snapshot()
        assert snap["loom.ingest.batches"] >= 1
        assert snap["loom.ingest.events"] == dataset.graph.num_edges
        assert snap["loom.window.high_water"] > 0
        # Resident state: the matchList's high-water mark, and the size of
        # the one structure that grows with the stream (the seen adjacency
        # of motif-label vertices; never more than the vertices seen).
        assert snap["loom.matchlist.high_water"] > 0
        assert (
            0
            < snap["loom.adjacency.vertices"]
            == len(partitioner._adj)
            <= dataset.graph.num_vertices
        )
        # Collectors pull the matcher/partitioner stat dicts lazily.
        assert any(key.startswith("loom.matcher.") for key in snap)
        assert any(key.startswith("loom.partitioner.") for key in snap)
        # The deferral queue's counters ride the same collector: after
        # finalize every parked vertex was claimed or aged out.
        parked = snap["loom.partitioner.deferred_vertices"]
        assert 0 < snap["loom.partitioner.deferred_peak"] <= parked
        assert parked == (
            snap["loom.partitioner.deferred_claimed"]
            + snap["loom.partitioner.deferred_aged_out"]
        )

    def test_serving_engine_rollups_and_attribution(self, dataset):
        from repro.serving import ServingEngine, TrafficDriver

        obs.enable()
        state, _ = _loom_over(dataset)
        engine = ServingEngine(dataset.graph, state, dataset.workload, cache=True)
        TrafficDriver(engine, seed=1, zipf_s=1.1).run(64, system="loom")
        snap = obs.snapshot()
        assert snap["windowed.serving.total_requests"] == 64
        assert snap["windowed.traffic.total_requests"] == 64
        # Hop attribution keys: <query>.l<label>.p<partition>
        hop_keys = [key for key in snap if key.startswith("serve.hops.")]
        assert hop_keys
        assert all(".l" in key and ".p" in key for key in hop_keys)
        # The cache collector reads the cache's own stats — no per-request
        # double counting in the registry.
        assert "serve.cache.hits" in snap or any(
            key.startswith("serve.cache.") for key in snap
        )

    def test_unplaced_roots_are_charged_to_no_real_partition(self, dataset):
        """A negative or never-interned root id is unplaced: both land on
        the ``p-1`` key, neither on (the last vertex's) real partition."""
        from repro.serving import ServingEngine

        obs.enable()
        state, _ = _loom_over(dataset)
        engine = ServingEngine(dataset.graph, state, dataset.workload)
        name = engine.query_names()[0]
        for root in (-1, 10**6):
            assert engine.serve_root(name, root).embeddings == ()
        hop_keys = [key for key in obs.snapshot() if key.startswith("serve.hops.")]
        assert hop_keys == [f"serve.hops.{name}.l{engine.root_label_id(name)}.p-1"]

    def test_identical_results_with_and_without_obs(self, dataset):
        baseline_state, _ = _loom_over(dataset)
        obs.enable(trace=True)
        traced_state, _ = _loom_over(dataset)
        assert baseline_state.export_assignment() == traced_state.export_assignment()
        # ... with the batch-granular gauges actually recording.
        assert obs.snapshot()["loom.matchlist.high_water"] > 0


class TestCliSurfaces:
    @pytest.fixture()
    def files(self, tmp_path, dataset):
        from repro.graph.io import write_graph
        from repro.query.io import write_workload

        graph_path = tmp_path / "graph.txt"
        workload_path = tmp_path / "workload.txt"
        write_graph(dataset.graph, graph_path)
        write_workload(dataset.workload, workload_path)
        return graph_path, workload_path, tmp_path

    def test_cli_obs_trace_serve_end_to_end(self, files, capsys):
        from repro.partition_cli import main

        graph_path, workload_path, tmp_path = files
        trace_path = tmp_path / "trace.jsonl"
        rc = main(
            [
                str(graph_path),
                "--workload",
                str(workload_path),
                "--system",
                "loom",
                "--k",
                "2",
                "--window",
                "80",
                "--serve",
                "40",
                "--stats",
                "--trace-out",
                str(trace_path),
                "--out",
                str(tmp_path / "assignment.tsv"),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "obs.loom.ingest.batches:" in err
        # --stats executes the workload through the same engine, so the
        # window holds the 40 served requests plus the execution pass.
        assert "obs.windowed.serving.total_requests:" in err
        assert "obs.serve.hops." in err
        assert "obs.serve.cache.hits:" in err
        assert f"trace written to {trace_path}" in err
        events = load_jsonl(str(trace_path))
        kinds = {rec["kind"] for rec in events}
        assert "serve.done" in kinds

    def test_summarize_digests_trace(self, files, capsys):
        from repro.obs.__main__ import main as obs_main
        from repro.partition_cli import main

        graph_path, workload_path, tmp_path = files
        trace_path = tmp_path / "trace.jsonl"
        main(
            [
                str(graph_path),
                "--workload",
                str(workload_path),
                "--system",
                "loom",
                "--k",
                "2",
                "--window",
                "80",
                "--serve",
                "30",
                "--trace-out",
                str(trace_path),
                "--out",
                str(tmp_path / "assignment.tsv"),
            ]
        )
        capsys.readouterr()
        assert obs_main(["summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "serve.done" in out
        assert "hops/query" in out

    def test_summarize_missing_file(self, capsys, tmp_path):
        from repro.obs.__main__ import main as obs_main

        assert obs_main(["summarize", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_harness_stats_lines_share_formatter(self, dataset):
        from repro.bench.harness import run_system

        events = list(stream_edges(dataset.graph, "bfs", seed=3))
        run = run_system(
            "loom",
            dataset.graph,
            dataset.workload,
            events,
            k=2,
            window_size=80,
            seed=3,
        )
        lines = run.stats_lines()
        assert lines == sorted(lines)
        assert all(line.startswith("loom.matcher.") for line in lines)


def _load_obs_overhead_script():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_obs_overhead.py"
    spec = importlib.util.spec_from_file_location("bench_obs_overhead", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestObsOverheadScript:
    def test_reduced_run_keeps_results_and_reports_every_rate(self):
        """``benchmarks/bench_obs_overhead.py``'s ``run()`` raises when obs
        changes the Loom assignment or the served hops / embeddings; a
        reduced single run is too noisy to judge the 2% budget, so only
        the rates are checked."""
        script = _load_obs_overhead_script()
        args = script.build_parser().parse_args(
            "--vertices 300 --edges 1800 --window 300 --requests 300 --repeats 1 --seed 0".split()
        )
        results = script.run(args)
        for leg, unit in (("ingest", "edges_per_sec"), ("serving", "requests_per_sec")):
            for mode in ("off", "metrics", "trace"):
                assert results[leg][mode][unit] > 0, (leg, mode)

    def test_modes_rotate_per_repeat(self, monkeypatch):
        """Each repeat starts one mode later than the one before, so over
        three repeats every mode leads once and none always follows the
        warm-up; ``run()`` times the ingest leg in exactly that order."""
        script = _load_obs_overhead_script()
        orders = [script.mode_order(repeat) for repeat in range(4)]
        assert orders[:3] == [
            ("off", "metrics", "trace"),
            ("metrics", "trace", "off"),
            ("trace", "off", "metrics"),
        ]
        assert orders[3] == orders[0]

        seen = []
        ingest_once = script._ingest_once

        def recording(*args, **kwargs):
            if not obs.enabled():
                seen.append("off")
            else:
                seen.append("trace" if obs.tracer().enabled else "metrics")
            return ingest_once(*args, **kwargs)

        monkeypatch.setattr(script, "_ingest_once", recording)
        args = script.build_parser().parse_args(
            "--vertices 150 --edges 600 --window 100 --requests 60 --repeats 3 --seed 0".split()
        )
        script.run(args)
        assert seen == ["off", *orders[0], *orders[1], *orders[2]]  # warm-up first
