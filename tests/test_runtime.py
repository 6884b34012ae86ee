"""The sharded runtime: routing, batching, merge, and end-to-end parity."""

import pytest
from helpers import make_random_labelled_graph

from repro.graph.interning import VertexInterner
from repro.graph.stream import batched, stream_edges, synthetic_stream
from repro.partitioning import registry
from repro.partitioning.state import PartitionState
from repro.query.pattern import path_pattern
from repro.query.workload import Workload
from repro.runtime import (
    GraphTotals,
    ShardRouter,
    available_merge_rules,
    merge_shard_results,
    mix64,
    register_merge_rule,
    run_sharded,
    shard_of_edge,
)
from repro.runtime.merge import _MERGE_RULES
from repro.runtime.messages import ShardResult


def tiny_workload():
    return Workload(
        [
            (path_pattern(["a", "b", "a", "b"], name="abab"), 0.5),
            (path_pattern(["a", "b", "c"], name="abc"), 0.5),
        ],
        name="runtime-tests",
    )


def _shard_result(shard_id, assignment):
    return ShardResult(
        shard_id=shard_id,
        assignment=assignment,
        edges=len(assignment),
        batches=1,
        ingest_seconds=0.0,
        worker_seconds=0.0,
    )


class TestSharding:
    def test_endpoint_symmetric(self):
        assert shard_of_edge(3, 7, 4) == shard_of_edge(7, 3, 4)

    def test_deterministic_pure_function(self):
        assert [shard_of_edge(i, i + 1, 8) for i in range(64)] == [
            shard_of_edge(i, i + 1, 8) for i in range(64)
        ]

    def test_mix64_breaks_sequential_ids(self):
        """Consecutive interner ids must not map to consecutive shards —
        that is exactly what raw ``hash(int)`` would do."""
        assert mix64(1) != 1  # not the identity on small ints, unlike hash()
        assert all(0 <= mix64(x) < (1 << 64) for x in (1, 2**40, -1))
        shards = [shard_of_edge(i, i + 1, 4) for i in range(100)]
        assert len(set(shards)) == 4
        assert shards != [i % 4 for i in range(100)]

    def test_every_shard_receives_edges(self):
        router = ShardRouter(4)
        counts = router.shard_counts(synthetic_stream(200, 1000, seed=1))
        assert len(counts) == 4
        assert all(c > 0 for c in counts)
        assert sum(counts) == 1000

    def test_router_interns_in_stream_order(self):
        router = ShardRouter(2)
        _, uid, vid = router.route("x", "y")
        assert (uid, vid) == (0, 1)
        _, uid2, _ = router.route("x", "z")
        assert uid2 == 0

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestBatched:
    def test_preserves_order_and_content(self):
        events = list(synthetic_stream(20, 40, seed=0))
        rebatched = [ev for batch in batched(events, 7) for ev in batch]
        assert rebatched == events

    def test_batch_sizes(self):
        events = list(synthetic_stream(20, 40, seed=0))
        sizes = [len(b) for b in batched(events, 16)]
        assert sizes == [16, 16, 8]

    def test_empty_stream(self):
        assert list(batched([], 4)) == []

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(batched([], 0))


class TestMerge:
    def test_lowest_shard_wins(self):
        interner = VertexInterner()
        for v in ("a", "b", "c"):
            interner.intern(v)
        results = [
            _shard_result(1, [("a", 3), ("b", 1)]),
            _shard_result(0, [("a", 2)]),
        ]
        outcome = merge_shard_results(
            results, k=4, expected_vertices=3, interner=interner
        )
        assert outcome.state.partition_of("a") == 2  # shard 0 beats shard 1
        assert outcome.state.partition_of("b") == 1
        assert outcome.state.partition_of("c") is None
        assert outcome.shared_vertices == 1
        assert outcome.conflicts == 1

    def test_majority_rule(self):
        interner = VertexInterner()
        interner.intern("a")
        results = [
            _shard_result(0, [("a", 2)]),
            _shard_result(1, [("a", 3)]),
            _shard_result(2, [("a", 3)]),
        ]
        outcome = merge_shard_results(
            results, k=4, expected_vertices=1, interner=interner, rule="majority"
        )
        assert outcome.state.partition_of("a") == 3
        assert outcome.conflicts == 1

    def test_agreeing_claims_are_not_conflicts(self):
        interner = VertexInterner()
        interner.intern("a")
        results = [_shard_result(0, [("a", 1)]), _shard_result(1, [("a", 1)])]
        outcome = merge_shard_results(
            results, k=2, expected_vertices=1, interner=interner
        )
        assert outcome.shared_vertices == 1
        assert outcome.conflicts == 0

    def test_pluggable_rule(self):
        name = "test-highest-partition"
        register_merge_rule(name, lambda vertex, claims: max(p for _, p in claims))
        try:
            assert name in available_merge_rules()
            interner = VertexInterner()
            interner.intern("a")
            results = [_shard_result(0, [("a", 0)]), _shard_result(1, [("a", 3)])]
            outcome = merge_shard_results(
                results, k=4, expected_vertices=1, interner=interner, rule=name
            )
            assert outcome.state.partition_of("a") == 3
        finally:
            _MERGE_RULES.pop(name, None)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            merge_shard_results(
                [], k=2, expected_vertices=1, interner=VertexInterner(), rule="nope"
            )


class TestStateExport:
    def test_export_roundtrip(self):
        state = PartitionState(3, 10)
        state.assign("x", 0)
        state.assign("y", 2)
        assert state.export_ids() == [(0, 0), (1, 2)]
        assert state.export_assignment() == [("x", 0), ("y", 2)]
        rebuilt = PartitionState(3, 10)
        rebuilt.bulk_assign(state.export_assignment())
        assert rebuilt.assignment() == state.assignment()

    def test_bulk_assign_respects_permanence(self):
        state = PartitionState(3, 10)
        state.assign("x", 0)
        state.bulk_assign([("x", 0)])  # re-assertion is a no-op
        with pytest.raises(ValueError):
            state.bulk_assign([("x", 1)])


class TestLoomBatchEntryPoint:
    def test_ingest_batch_matches_per_event_ingest(self):
        """The batch-offer entry point is an amortisation, not a semantic
        change: same assignments, same matcher counters, same stats."""
        graph = make_random_labelled_graph(60, 140, seed=5)
        events = list(stream_edges(graph, "bfs", seed=3))
        workload = tiny_workload()
        from repro.core.loom import LoomPartitioner

        state_a = PartitionState.for_graph(4, graph.num_vertices)
        loom_a = LoomPartitioner(state_a, workload, window_size=40, seed=0)
        loom_a.ingest_all(events)

        state_b = PartitionState.for_graph(4, graph.num_vertices)
        loom_b = LoomPartitioner(state_b, workload, window_size=40, seed=0)
        for batch in batched(events, 13):
            loom_b.ingest_batch(batch)
        loom_b.finalize()

        assert state_a.assignment() == state_b.assignment()
        # No matcher counter depends on the batch layout.
        assert loom_a.matcher.stats == loom_b.matcher.stats
        assert loom_a.stats == loom_b.stats
        assert loom_a.edges_ingested == loom_b.edges_ingested == len(events)


class TestRunSharded:
    @pytest.mark.parametrize("system", ["ldg", "fennel", "hash"])
    def test_one_shard_matches_single_process(self, system):
        """One worker sees the whole stream in order — the sharded result
        must be assignment-identical to the direct in-process run."""
        events = list(synthetic_stream(300, 1200, seed=2))
        state = PartitionState.for_graph(4, 300)
        partitioner = registry.create(
            system, state, graph=GraphTotals(300, 1200), seed=0
        )
        partitioner.ingest_all(events)

        result = run_sharded(
            events,
            system=system,
            num_shards=1,
            k=4,
            expected_vertices=300,
            expected_edges=1200,
            seed=0,
        )
        assert result.state.assignment() == state.assignment()

    def test_one_shard_loom_matches_single_process(self):
        from repro.core.loom import LoomPartitioner

        graph = make_random_labelled_graph(60, 140, seed=5)
        events = list(stream_edges(graph, "bfs", seed=3))
        workload = tiny_workload()
        state = PartitionState.for_graph(4, graph.num_vertices)
        loom = LoomPartitioner(state, workload, window_size=40, seed=0)
        loom.ingest_all(events)

        result = run_sharded(
            events,
            system="loom",
            num_shards=1,
            k=4,
            expected_vertices=graph.num_vertices,
            expected_edges=graph.num_edges,
            workload=workload,
            window_size=40,
            seed=0,
        )
        assert result.state.assignment() == state.assignment()
        assert result.shard_results[0].matcher_stats == loom.matcher.stats.as_dict()

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_multi_shard_places_every_vertex(self, num_shards):
        events = list(synthetic_stream(300, 1200, seed=2))
        result = run_sharded(
            events,
            system="ldg",
            num_shards=num_shards,
            k=4,
            expected_vertices=300,
            expected_edges=1200,
            batch_size=64,
        )
        assert result.state.num_assigned == 300
        assert result.edges == 1200
        assert sum(result.shard_edge_counts()) == 1200
        assert len(result.shard_results) == num_shards
        assert all(r.edges > 0 for r in result.shard_results)

    def test_multi_shard_in_process_rerun_is_identical(self):
        """Two sharded runs in the same interpreter agree bit for bit
        (the cross-interpreter version lives in test_runtime_determinism)."""
        events = list(synthetic_stream(200, 800, seed=4))
        runs = [
            run_sharded(
                events,
                system="fennel",
                num_shards=4,
                k=4,
                expected_vertices=200,
                expected_edges=800,
                batch_size=32,
            )
            for _ in range(2)
        ]
        assert runs[0].state.assignment() == runs[1].state.assignment()
        assert runs[0].shard_edge_counts() == runs[1].shard_edge_counts()

    def test_hash_is_shard_count_invariant(self):
        """Hash places by a stable hash of the vertex itself, so *any*
        shard count reproduces the single-process assignment — the
        strongest version of the merge-transparency property."""
        events = list(synthetic_stream(150, 600, seed=7))
        baseline = None
        for num_shards in (1, 3):
            result = run_sharded(
                events,
                system="hash",
                num_shards=num_shards,
                k=5,
                expected_vertices=150,
                expected_edges=600,
                batch_size=50,
            )
            if baseline is None:
                baseline = result.state.assignment()
            else:
                assert result.state.assignment() == baseline

    def test_killed_worker_surfaces_exit_signal(self):
        """A worker that dies *without* reporting (SIGKILL — the OOM-killer
        shape) must surface as an error naming the signal, within the
        liveness poll interval rather than the full result timeout."""
        import multiprocessing as mp_module
        import os
        import signal
        import threading
        import time

        events = list(synthetic_stream(200, 2000, seed=0))

        def killer():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                victims = [
                    p
                    for p in mp_module.active_children()
                    if p.name.startswith("loom-shard-")
                ]
                if victims:
                    try:
                        os.kill(victims[0].pid, signal.SIGKILL)
                    except ProcessLookupError:  # pragma: no cover - lost race
                        pass
                    return
                time.sleep(0.005)

        thread = threading.Thread(target=killer)
        thread.start()
        start = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="SIGKILL"):
                run_sharded(
                    events,
                    system="ldg",
                    num_shards=2,
                    k=4,
                    expected_vertices=200,
                    expected_edges=2000,
                    result_timeout=120.0,
                )
        finally:
            thread.join()
        assert time.monotonic() - start < 60.0

    def test_worker_failure_surfaces(self):
        events = list(synthetic_stream(20, 40, seed=0))
        with pytest.raises((RuntimeError, ValueError)):
            # loom without a workload: the factory raises in the worker and
            # the driver must re-raise instead of hanging.
            run_sharded(
                events,
                system="loom",
                num_shards=2,
                k=2,
                expected_vertices=20,
                expected_edges=40,
                result_timeout=60.0,
            )

    def test_unknown_system_fails_fast(self):
        with pytest.raises(ValueError):
            run_sharded(
                [], system="metis", num_shards=2, k=2,
                expected_vertices=1, expected_edges=1,
            )

    def test_unknown_merge_rule_fails_fast(self):
        with pytest.raises(ValueError):
            run_sharded(
                [], system="ldg", num_shards=2, k=2,
                expected_vertices=1, expected_edges=1, merge="nope",
            )
