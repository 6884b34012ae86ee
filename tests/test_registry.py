"""The pluggable partitioner registry and its call-site integration."""

import pytest

from repro.bench.harness import make_partitioner
from repro.datasets.registry import load_dataset
from repro.graph.stream import EdgeEvent
from repro.partitioning import registry
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.state import PartitionState


@pytest.fixture(scope="module")
def tiny_dataset():
    return load_dataset("provgen", 420, seed=2)


class RoundRobinPartitioner(StreamingPartitioner):
    """A deliberately trivial strategy used to exercise plugin paths."""

    name = "round-robin"

    def __init__(self, state):
        super().__init__(state)
        self._next = 0

    def ingest(self, event: EdgeEvent) -> None:
        for v in event.endpoints():
            vid = self.state.intern(v)
            if not self.state.is_assigned_id(vid):
                self.state.assign_id(vid, self._next % self.state.k)
                self._next += 1


@pytest.fixture
def round_robin_registered():
    registry.register("round-robin", lambda ctx: RoundRobinPartitioner(ctx.state))
    yield
    registry.unregister("round-robin")


def test_builtins_available_in_paper_order():
    names = registry.available()
    assert names[:4] == ("hash", "ldg", "fennel", "loom")
    assert registry.BUILTIN_SYSTEMS == ("hash", "ldg", "fennel", "loom")
    for name in registry.BUILTIN_SYSTEMS:
        assert registry.is_registered(name)


def test_create_unknown_raises():
    with pytest.raises(ValueError, match="unknown system"):
        registry.create("metis", PartitionState(2, 10))


def test_register_validates_name():
    with pytest.raises(ValueError):
        registry.register("", lambda ctx: None)


def test_loom_requires_workload(tiny_dataset):
    with pytest.raises(ValueError, match="workload"):
        registry.create("loom", PartitionState(2, 10), graph=tiny_dataset.graph)


def test_fennel_requires_graph():
    with pytest.raises(ValueError, match="graph"):
        registry.create("fennel", PartitionState(2, 10))


def test_registered_strategy_flows_through_make_partitioner(
    tiny_dataset, round_robin_registered
):
    g, wl = tiny_dataset.graph, tiny_dataset.workload
    state = PartitionState.for_graph(3, g.num_vertices)
    p = make_partitioner("round-robin", state, g, wl, window_size=20)
    assert isinstance(p, RoundRobinPartitioner)
    from repro.graph.stream import stream_edges

    p.ingest_all(stream_edges(g, "bfs"))
    assert state.num_assigned == g.num_vertices
    assert max(state.sizes()) - min(state.sizes()) <= 1  # round robin balances


def test_unregister_removes(round_robin_registered):
    assert registry.is_registered("round-robin")
    registry.unregister("round-robin")
    assert not registry.is_registered("round-robin")
    registry.unregister("round-robin")  # idempotent


def test_decorator_form():
    @registry.register("decorated-rr")
    def _factory(ctx):
        return RoundRobinPartitioner(ctx.state)

    try:
        p = registry.create("decorated-rr", PartitionState(2, 10))
        assert isinstance(p, RoundRobinPartitioner)
    finally:
        registry.unregister("decorated-rr")


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
