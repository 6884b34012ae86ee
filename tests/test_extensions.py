"""Tests for the future-work extensions: restreaming, workload IO, CLI."""

import hashlib

import pytest

from repro.core.restream import (
    RestreamResult,
    migration_stats,
    migration_volume,
    restream,
    restream_until_stable,
)
from repro.datasets.figure1 import figure1_workload
from repro.datasets.registry import load_dataset
from repro.graph.io import write_graph
from repro.graph.stream import stream_edges
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


class TestMigrationVolume:
    def test_identical_states_zero(self):
        a = PartitionState(2, 10)
        a.assign(1, 0)
        b = PartitionState(2, 10)
        b.assign(1, 0)
        assert migration_volume(a, b) == 0

    def test_counts_moves_only(self):
        a = PartitionState(2, 10)
        a.assign(1, 0)
        a.assign(2, 1)
        b = PartitionState(2, 10)
        b.assign(1, 1)  # moved
        # 2 unassigned in b: not counted as a move
        assert migration_volume(a, b) == 1

    def test_migration_stats_separates_dropped(self):
        """A vertex absent from the new state is *dropped*, not kept —
        counting it as kept understated the migration fraction."""
        a = PartitionState(2, 10)
        a.assign(1, 0)  # kept
        a.assign(2, 1)  # moved
        a.assign(3, 0)  # dropped (never re-placed)
        b = PartitionState(2, 10)
        b.assign(1, 0)
        b.assign(2, 0)
        b.assign(4, 1)  # new vertex: in none of the three counters
        assert migration_stats(a, b) == (1, 1, 1)

    def test_migration_fraction_over_coassigned_only(self):
        result = RestreamResult(
            state=PartitionState(2, 10),
            moved_vertices=1,
            kept_vertices=1,
            dropped_vertices=8,
        )
        assert result.migration_fraction == 0.5


class TestRestream:
    def test_result_accounting(self, drift_setup):
        dataset, events, state = drift_setup
        result = restream(events, dataset.workload, state, window_size=120)
        assert isinstance(result, RestreamResult)
        assert (
            result.moved_vertices + result.kept_vertices + result.dropped_vertices
            == state.num_assigned
        )
        # Replaying the same stream re-places every previous vertex.
        assert result.dropped_vertices == 0
        assert 0.0 <= result.migration_fraction <= 1.0
        assert result.state.num_assigned == dataset.graph.num_vertices

    def test_dropped_vertices_on_shrunken_stream(self, drift_setup):
        """Restreaming a prefix of the original stream leaves the tail's
        vertices unplaced; they must surface as dropped, not as kept."""
        dataset, events, state = drift_setup
        result = restream(events[: len(events) // 2], dataset.workload, state, window_size=120)
        assert result.dropped_vertices > 0
        assert (
            result.moved_vertices + result.kept_vertices + result.dropped_vertices
            == state.num_assigned
        )

    def test_stickiness_caps_migration(self, drift_setup):
        """Higher stickiness must not increase migration volume."""
        dataset, events, state = drift_setup
        fractions = []
        for stickiness in (0, 4):
            result = restream(
                events, dataset.workload, state, stickiness=stickiness, window_size=120
            )
            fractions.append(result.migration_fraction)
        assert fractions[1] <= fractions[0] + 0.02

    def test_invalid_stickiness(self, drift_setup):
        dataset, events, state = drift_setup
        with pytest.raises(ValueError):
            restream(events, dataset.workload, state, stickiness=-1)

    def test_restream_under_drifted_workload(self, drift_setup):
        """After drift, restreaming should not degrade ipt under the new
        workload (and usually improves it)."""
        dataset, events, state = drift_setup
        drifted = dataset.workload.reweighted({"attribution": 10.0})
        executor = WorkloadExecutor(dataset.graph, drifted)
        stale_ipt = executor.execute(state).weighted_ipt
        result = restream(events, drifted, state, window_size=120)
        new_ipt = executor.execute(result.state).weighted_ipt
        assert new_ipt <= stale_ipt * 1.10

    def test_sticky_placements_are_pinned(self, drift_setup):
        """One golden assignment under a drifted workload, where the sticky
        LDG choice decides a fifth of the vertices.  ``_place_now`` is
        handed the neighbours it scores (it no longer looks them up), and
        that must not move a placement: the digest predates the change."""
        dataset, events, state = drift_setup
        drifted = dataset.workload.reweighted({"attribution": 10.0})
        result = restream(events, drifted, state, stickiness=3, window_size=120)
        assert (result.moved_vertices, result.kept_vertices) == (180, 590)
        digest = hashlib.sha256(repr(result.state.export_assignment()).encode()).hexdigest()
        assert digest[:16] == "4d15e08170e510c3"

    def test_restream_until_stable(self, drift_setup):
        dataset, events, state = drift_setup
        executor = WorkloadExecutor(dataset.graph, dataset.workload)
        result = restream_until_stable(
            events,
            dataset.workload,
            state,
            max_passes=2,
            executor=executor,
            window_size=120,
        )
        assert result.state.num_assigned >= state.num_assigned

    def test_until_stable_validation(self, drift_setup):
        dataset, events, state = drift_setup
        with pytest.raises(ValueError, match="Executor"):
            restream_until_stable(events, dataset.workload, state)
        executor = WorkloadExecutor(dataset.graph, dataset.workload)
        with pytest.raises(ValueError, match="max_passes"):
            restream_until_stable(
                events, dataset.workload, state, max_passes=0, executor=executor
            )


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
        ],
        ids=["execute-without-workload", "inflight-zero", "inflight-zero-in-process"],
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
