"""Tests for the harness, experiments and reporting (small scales)."""

import pytest

from repro.bench import experiments
from repro.bench.harness import (
    SYSTEMS,
    compare_systems,
    run_system,
    scaled_window,
)
from repro.bench.reporting import render_series, render_table
from repro.datasets.registry import load_dataset
from repro.graph.stream import stream_edges
from repro.partitioning import registry
from repro.partitioning.state import PartitionState
from repro.query.executor import WorkloadExecutor


@pytest.fixture(scope="module")
def tiny_dataset():
    return load_dataset("provgen", 420, seed=2)


class TestHarness:
    def test_make_partitioner_all_systems(self, tiny_dataset):
        g, wl = tiny_dataset.graph, tiny_dataset.workload
        for system in SYSTEMS:
            state = PartitionState.for_graph(2, g.num_vertices)
            p = registry.create(system, state, graph=g, workload=wl, window_size=20)
            assert p.name == system

    def test_make_partitioner_unknown(self, tiny_dataset):
        g, wl = tiny_dataset.graph, tiny_dataset.workload
        with pytest.raises(ValueError):
            registry.create("metis", PartitionState(2, 10), graph=g, workload=wl, window_size=10)

    def test_scaled_window(self, tiny_dataset):
        w = scaled_window(tiny_dataset.graph, fraction=0.1, minimum=5)
        assert w == max(5, int(tiny_dataset.graph.num_edges * 0.1))

    def test_run_system_quality_and_report(self, tiny_dataset):
        g, wl = tiny_dataset.graph, tiny_dataset.workload
        events = list(stream_edges(g, "bfs", seed=0))
        executor = WorkloadExecutor(g, wl)
        run = run_system("ldg", g, wl, events, k=2, executor=executor)
        assert run.quality["assigned_vertices"] == g.num_vertices
        assert run.report is not None
        assert run.ms_per_10k_edges > 0
        assert run.edges == g.num_edges

    def test_compare_systems_relative_ipt(self, tiny_dataset):
        result = compare_systems(tiny_dataset, order="bfs", k=2, window_size=40)
        assert set(result.runs) == set(SYSTEMS)
        assert result.relative_ipt("hash") == pytest.approx(100.0)
        row = result.row()
        assert row["dataset"] == "provgen"
        assert all(s in row for s in SYSTEMS)


class TestExperiments:
    def test_table1_tiny(self):
        result = experiments.table1(sizes={"provgen": 350}, seed=1)
        assert result.rows[0]["dataset"] == "provgen"
        assert result.rows[0]["labels"] == 3
        assert "Table 1" in result.render()

    def test_figure4_rows(self):
        result = experiments.figure4(max_p=60, sample_every=2)
        assert result.name == "figure4"
        # last row, strictest tolerance, most factors: high acceptance.
        last = result.rows[-1]
        assert last["tol5%/24f"] >= result.rows[0]["tol5%/24f"]

    def test_figure7_smoke(self):
        result = experiments.figure7(
            sizes={"provgen": 380}, datasets=("provgen",), orders=("bfs",), k=2
        )
        (row,) = result.rows
        assert row["hash"] == pytest.approx(100.0)
        assert row["loom"] <= 100.0

    def test_figure8_smoke(self):
        result = experiments.figure8(
            sizes={"provgen": 380}, datasets=("provgen",), ks=(2, 4)
        )
        assert [r["k"] for r in result.rows] == [2, 4]

    def test_figure9_smoke(self):
        result = experiments.figure9(
            dataset="provgen",
            num_vertices=380,
            window_sizes=(20, 80),
            k=2,
            orders=("bfs",),
        )
        assert [r["window"] for r in result.rows] == [20, 80]
        assert all(r["loom_ipt"] >= 0 for r in result.rows)

    def test_table2_smoke(self):
        result = experiments.table2(sizes={"provgen": 380}, num_edges=300)
        (row,) = result.rows
        for system in ("hash", "ldg", "fennel", "loom"):
            assert row[f"{system}_ms"] >= 0

    def test_ablation_smoke(self):
        result = experiments.ablation(dataset="provgen", num_vertices=380, k=2)
        variants = {r["variant"] for r in result.rows}
        assert "loom (full)" in variants
        assert "no deferral" in variants
        assert "low match cap" in variants

    def test_registry_of_experiments(self):
        assert set(experiments.EXPERIMENTS) == {
            "table1",
            "figure4",
            "figure7",
            "figure8",
            "figure9",
            "table2",
            "ablation",
            "stability",
        }

    def test_stability_smoke(self):
        result = experiments.stability(
            datasets=("provgen",), sizes={"provgen": 380}, seeds=(0, 1), k=2
        )
        (row,) = result.rows
        assert row["seeds"] == 2
        assert "(" in row["loom"]  # "mean (min-max)" formatting
        # Without ``seeds`` the sweep is the trial's seed and the next two.
        seed0, seed5 = (
            experiments.stability(datasets=("provgen",), sizes={"provgen": 380}, k=2, seed=s)
            for s in (0, 5)
        )
        assert "seeds (0, 1, 2)" in seed0.title and "seeds (5, 6, 7)" in seed5.title
        assert seed0.rows != seed5.rows


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(
            [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_table_empty(self):
        assert "(no rows)" in render_table([], title="T")

    def test_render_table_column_selection(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_render_series(self):
        text = render_series({"y1": [1.0, 2.0]}, x_values=[10, 20], x_name="t")
        assert "t" in text and "y1" in text

    def test_bool_formatting(self):
        assert "Y" in render_table([{"real": True}])


class TestCli:
    def test_main_figure4(self, capsys):
        from repro.bench.__main__ import main

        assert main(["figure4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
