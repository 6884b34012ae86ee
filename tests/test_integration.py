"""End-to-end integration tests: the full pipeline at small scale.

These lock in the paper's qualitative results (the shapes the benchmarks
regenerate at full scale): workload-aware beats workload-agnostic on ipt,
every system assigns every vertex, and Loom's window recovers locality on
randomly-ordered (pseudo-adversarial) streams.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import compare_systems
from repro.core.loom import LoomPartitioner
from repro.datasets.registry import load_dataset
from repro.graph.stream import stream_edges
from repro.partitioning.metrics import unassigned_vertices
from repro.partitioning.state import PartitionState
from repro.query.executor import WorkloadExecutor


@pytest.fixture(scope="module")
def provgen():
    return load_dataset("provgen", 900, seed=4)


@pytest.fixture(scope="module")
def musicbrainz():
    return load_dataset("musicbrainz", 1200, seed=4)


class TestFullPipeline:
    @pytest.mark.parametrize("order", ["bfs", "dfs", "random"])
    def test_all_systems_complete_and_comparable(self, provgen, order):
        result = compare_systems(provgen, order=order, k=4, window_size=120, seed=3)
        for name, run in result.runs.items():
            assert unassigned_vertices(provgen.graph, run.state) == []
            assert run.report is not None
        # Hash is the baseline: every informed system beats it.
        for system in ("ldg", "fennel", "loom"):
            assert result.relative_ipt(system) < 100.0

    def test_loom_beats_hash_clearly(self, provgen):
        result = compare_systems(provgen, order="bfs", k=4, window_size=120, seed=3)
        assert result.relative_ipt("loom") < 80.0

    def test_loom_beats_workload_agnostic_on_random_order(self, musicbrainz):
        """Sec. 5.3: random order is pseudo-adversarial for LDG/Fennel; the
        window lets Loom re-localise the stream."""
        result = compare_systems(musicbrainz, order="random", k=4, window_size=250, seed=3)
        assert result.relative_ipt("loom") < result.relative_ipt("ldg")
        assert result.relative_ipt("loom") < result.relative_ipt("fennel") - 5.0

    def test_imbalance_within_cap(self, provgen):
        result = compare_systems(provgen, order="bfs", k=4, window_size=120, seed=3)
        for system in ("ldg", "fennel", "loom"):
            state = result.runs[system].state
            assert max(state.sizes()) <= state.capacity

    def test_quality_summary_populated(self, provgen):
        result = compare_systems(provgen, order="bfs", k=4, window_size=120, seed=3)
        for run in result.runs.values():
            assert run.quality["edge_cut"] >= 0
            assert run.quality["assigned_vertices"] == provgen.graph.num_vertices


class TestWindowEffect:
    def test_bigger_window_no_worse_on_random_order(self, musicbrainz):
        """Fig. 9's direction: growing the window improves Loom on random
        streams."""
        g, wl = musicbrainz.graph, musicbrainz.workload
        events = list(stream_edges(g, "random", seed=5))
        executor = WorkloadExecutor(g, wl)
        ipts = []
        for window in (30, 600):
            state = PartitionState.for_graph(4, g.num_vertices)
            loom = LoomPartitioner(state, wl, window_size=window)
            loom.ingest_all(events)
            ipts.append(executor.execute(state).weighted_ipt)
        assert ipts[1] < ipts[0]


class TestCrossSystemDeterminism:
    def test_identical_reruns(self, provgen):
        a = compare_systems(provgen, order="random", k=4, window_size=100, seed=9)
        b = compare_systems(provgen, order="random", k=4, window_size=100, seed=9)
        for system in a.runs:
            assert a.runs[system].state.assignment() == b.runs[system].state.assignment()
            assert a.relative_ipt(system) == b.relative_ipt(system)


class TestWorkloadSensitivity:
    def test_loom_adapts_to_workload_change(self, provgen):
        """Different workloads should steer Loom to different partitionings
        (the whole point of query-awareness)."""
        g = provgen.graph
        wl_a = provgen.workload
        wl_b = wl_a.reweighted({"revision-chain": 10.0})
        events = list(stream_edges(g, "bfs", seed=1))
        state_a = PartitionState.for_graph(4, g.num_vertices)
        LoomPartitioner(state_a, wl_a, window_size=120).ingest_all(events)
        state_b = PartitionState.for_graph(4, g.num_vertices)
        LoomPartitioner(state_b, wl_b, window_size=120).ingest_all(events)
        assert state_a.assignment() != state_b.assignment()


# The engine is a deployment of repro.runtime's front end, which is built on
# repro.serving's kernels: whether a module-level cycle between the packages
# fails depends on which module a process imports first, so each entry
# point goes first in a fresh interpreter of its own.
@pytest.mark.parametrize(
    "module",
    [
        "repro.serving.engine",
        "repro.serving",
        "repro.runtime.server",
        "repro.runtime.live",
        "repro.runtime.frontend",
        "repro.runtime.transport",
    ],
)
def test_each_serving_entry_point_imports_first(module):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


# Every process of a deployment (driver, shard servers, CLI) starts by
# importing the package; numpy used to ride along (16 MB resident, 140 ms)
# for a matcher path that measured no faster.  Run in a fresh interpreter:
# the pytest process itself may hold numpy through a plugin.
NUMPY_FREE = """
import sys

import repro, repro.runtime.live, repro.serving, repro.partition_cli
from repro.datasets import load_dataset
from repro.graph.stream import stream_edges, stream_prefix
from repro.partitioning import registry
from repro.partitioning.state import PartitionState

dataset = load_dataset("musicbrainz", 150, seed=1)
events = stream_prefix(stream_edges(dataset.graph, "bfs", seed=1), 200)
assert len(events) == 200
state = PartitionState.for_graph(4, dataset.graph.num_vertices)
loom = registry.create(
    "loom", state, graph=dataset.graph, workload=dataset.workload, window_size=25, seed=1
)
loom.ingest_all(events)
assert loom.matcher.stats.edges_windowed > 0 and loom.stats["evictions"] > 0
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_package_and_a_loom_pass_never_import_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
