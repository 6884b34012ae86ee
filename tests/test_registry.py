"""The partitioner table: the four Sec. 5.1 systems by name."""

import pytest

from repro.datasets.registry import load_dataset
from repro.partitioning import registry
from repro.partitioning.state import PartitionState


@pytest.fixture(scope="module")
def tiny_dataset():
    return load_dataset("provgen", 420, seed=2)


def test_builtins_available_in_paper_order():
    assert registry.available() == registry.BUILTIN_SYSTEMS == ("hash", "ldg", "fennel", "loom")


def test_create_unknown_raises():
    with pytest.raises(ValueError, match="unknown system"):
        registry.create("metis", PartitionState(2, 10))


def test_loom_requires_workload(tiny_dataset):
    with pytest.raises(ValueError, match="workload"):
        registry.create("loom", PartitionState(2, 10), graph=tiny_dataset.graph)


def test_fennel_requires_graph():
    with pytest.raises(ValueError, match="graph"):
        registry.create("fennel", PartitionState(2, 10))


def test_extra_kwargs_reach_loom(tiny_dataset):
    g, wl = tiny_dataset.graph, tiny_dataset.workload
    state = PartitionState.for_graph(2, g.num_vertices)
    loom = registry.create(
        "loom", state, graph=g, workload=wl, window_size=25,
        support_threshold=0.2, defer_motif_vertices=False,
    )
    assert loom.index.threshold == 0.2
    assert loom._park_labels == frozenset()
    assert loom.matcher.window.capacity == 25
