"""Tests for the future-work extensions: enhancement, workload IO, CLI."""

import hashlib

import pytest

from repro.core.enhance import MAX_PASSES, enhance
from repro.datasets.figure1 import figure1_workload
from repro.datasets.registry import load_dataset
from repro.graph.io import write_graph
from repro.graph.stream import stream_edges
from repro.partitioning.registry import create
from repro.partitioning.state import PartitionState
from repro.query.executor import WorkloadExecutor
from repro.query.io import read_workload, write_workload
from repro.core.loom import LoomPartitioner


@pytest.fixture(scope="module")
def drift_setup():
    dataset = load_dataset("provgen", 800, seed=6)
    events = list(stream_edges(dataset.graph, "bfs", seed=6))
    state = PartitionState.for_graph(4, dataset.graph.num_vertices)
    LoomPartitioner(state, dataset.workload, window_size=120).ingest_all(events)
    return dataset, events, state


class TestEnhance:
    """The enhancement pass on a drifted workload: the stale Loom state is
    re-weighted toward the queries that became frequent."""

    @pytest.fixture(scope="class")
    def drifted(self, drift_setup):
        dataset, _events, state = drift_setup
        drifted = dataset.workload.reweighted({"attribution": 10.0})
        executor = WorkloadExecutor(dataset.graph, drifted)
        return executor, enhance(state, executor.edge_weights())

    def test_lowers_drifted_ipt_within_capacity(self, drift_setup, drifted):
        dataset, _events, state = drift_setup
        executor, result = drifted
        assert executor.execute(result.state).weighted_ipt < executor.execute(state).weighted_ipt
        assert max(result.state.sizes()) <= state.capacity
        assert result.state.num_assigned == state.num_assigned == dataset.graph.num_vertices
        assert result.state.interner is state.interner
        moved = sum(result.state.partition_of(v) != p for v, p in state.export_assignment())
        assert result.moved_vertices == moved
        assert 1 < result.passes <= MAX_PASSES

    def test_pinned_assignment(self, drifted):
        """The sweep visits interned ids and sums weights in the executor's
        enumeration order, so the result holds under any hash seed."""
        _executor, result = drifted
        assert result.moved_vertices == 221
        digest = hashlib.sha256(repr(result.state.export_assignment()).encode()).hexdigest()
        assert digest[:16] == "2f2f8df708d1c466"

    def test_unassigned_endpoint_rejected(self):
        state = PartitionState(2, 10)
        state.assign(1, 0)
        state.intern(2)
        with pytest.raises(ValueError, match="unassigned endpoint"):
            enhance(state, {(1, 2): 1.0})

    def test_cut_weight_is_weighted_ipt(self, drift_setup):
        dataset, events, _state = drift_setup
        executor = WorkloadExecutor(dataset.graph, dataset.workload)
        weights = executor.edge_weights()
        for system in ("hash", "ldg", "loom"):
            state = PartitionState.for_graph(4, dataset.graph.num_vertices)
            create(system, state, workload=dataset.workload, window_size=120).ingest_all(events)
            partition_of = state.partition_of
            cut = sum(w for (u, v), w in weights.items() if partition_of(u) != partition_of(v))
            assert cut == pytest.approx(executor.execute(state).weighted_ipt), system


class TestWorkloadIO:
    def test_round_trip(self, tmp_path):
        wl = figure1_workload()
        path = tmp_path / "q.txt"
        write_workload(wl, path)
        back = read_workload(path)
        assert len(back) == 3
        assert back.frequencies() == pytest.approx(wl.frequencies())
        for a, b in zip(wl, back):
            assert a.pattern.num_edges == b.pattern.num_edges
            assert sorted(a.pattern.labels().values()) == sorted(b.pattern.labels().values())

    def test_hand_authored(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("q coauthor 2\np 0 a 1 b\np 1 b 2 a\nq lookup 1\np 0 a 1 b\n")
        wl = read_workload(path)
        assert wl.frequencies() == pytest.approx({"coauthor": 2 / 3, "lookup": 1 / 3})

    def test_edge_before_query_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p 0 a 1 b\n")
        with pytest.raises(ValueError, match="before any 'q'"):
            read_workload(path)

    def test_empty_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no queries"):
            read_workload(path)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("q x 1\nwhatever\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            read_workload(path)


class TestPartitionCli:
    @pytest.fixture()
    def files(self, tmp_path):
        from repro.query.io import write_workload

        dataset = load_dataset("provgen", 400, seed=1)
        graph_path = tmp_path / "graph.txt"
        workload_path = tmp_path / "workload.txt"
        write_graph(dataset.graph, graph_path)
        write_workload(dataset.workload, workload_path)
        return dataset, graph_path, workload_path, tmp_path

    def test_loom_end_to_end(self, files, capsys):
        from repro.partition_cli import main

        dataset, graph_path, workload_path, tmp_path = files
        out = tmp_path / "assignment.tsv"
        rc = main(
            [
                str(graph_path),
                "--workload",
                str(workload_path),
                "--system",
                "loom",
                "--k",
                "4",
                "--window",
                "60",
                "--execute",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == dataset.graph.num_vertices
        partitions = {int(line.split("\t")[1]) for line in lines}
        assert partitions <= {0, 1, 2, 3}
        assert "weighted_ipt" in capsys.readouterr().err

    def test_plain_system_without_workload(self, files, capsys):
        from repro.partition_cli import main

        _dataset, graph_path, _wl, _tmp = files
        assert main([str(graph_path), "--system", "ldg", "--k", "2"]) == 0
        assert "\t" in capsys.readouterr().out

    def test_loom_requires_workload(self, files):
        from repro.partition_cli import main

        _dataset, graph_path, _wl, _tmp = files
        assert main([str(graph_path), "--system", "loom"]) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--system", "ldg", "--execute"], "--execute requires --workload"),
            (
                ["--workload", "no-such-workload.txt", "--serve", "5",
                 "--serve-shards", "2", "--inflight", "0"],
                "--inflight must be at least 1",
            ),
            (
                ["--workload", "no-such-workload.txt", "--serve", "5", "--inflight", "0"],
                "--inflight must be at least 1",
            ),
            (["--system", "ldg", "--k", "0"], "--k must be at least 1"),
            (["--system", "ldg", "--imbalance", "0.5"], "--imbalance must be at least 1"),
            (
                ["--workload", "no-such-workload.txt", "--serve", "-3"],
                "--serve must be at least 0",
            ),
            (
                ["--workload", "no-such-workload.txt", "--serve", "5", "--serve-shards", "-1"],
                "--serve-shards must be at least 0",
            ),
            (["--system", "ldg", "--window", "0"], "--window must be at least 1"),
            (["--system", "ldg", "--threshold", "1.5"], "--threshold must lie in (0, 1]"),
            (["--system", "ldg", "--threshold", "0"], "--threshold must lie in (0, 1]"),
            (
                ["--workload", "no-such-workload.txt", "--serve", "5", "--zipf", "-1"],
                "--zipf must be at least 0",
            ),
        ],
        ids=[
            "execute-without-workload",
            "inflight-zero",
            "inflight-zero-in-process",
            "k-zero",
            "imbalance-below-one",
            "serve-negative",
            "serve-shards-negative",
            "window-zero",
            "threshold-above-one",
            "threshold-zero",
            "zipf-negative",
        ],
    )
    def test_flag_errors_come_before_the_graph_is_read(self, flags, message, capsys):
        """A bad flag combination is rejected before any file is opened —
        not after the whole graph has been read and partitioned."""
        from repro.partition_cli import main

        assert main(["no-such-graph.txt", *flags]) == 2
        assert message in capsys.readouterr().err

    def test_sharded_ingest_flags_are_gone(self, capsys):
        from repro.partition_cli import build_parser, main

        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-graph.txt", "--system", "ldg", "--shards", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err
        help_text = build_parser().format_help()
        for flag in ("--shards", "--batch-size", "--merge-rule"):
            assert flag not in help_text
