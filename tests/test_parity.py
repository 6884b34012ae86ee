"""Refactor parity: array-backed stack vs the frozen dict-based seed.

The interned-id refactor must be *behaviour preserving*: for a fixed seed
and stream, every system places every vertex in exactly the partition the
pre-refactor implementation chose.  These tests drive the frozen legacy
implementations (:mod:`repro.partitioning.legacy`) and the live stack over
identical event lists and compare full assignment maps.

The frozen oracle predates Loom's deferral queue and cannot express it, so
every Loom case builds the live stack with ``defer_motif_vertices=False``:
parity with the switch off is the proof that parking is the *only* thing
that moved the default's placements.
"""

import pytest

from repro.core.loom import LoomPartitioner
from repro.graph.interning import VertexInterner
from repro.graph.stream import stream_edges, synthetic_stream
from repro.partitioning.fennel import FennelPartitioner
from repro.partitioning.hash_partitioner import HashPartitioner
from repro.partitioning.ldg import LDGPartitioner
from repro.partitioning.legacy import (
    DictPartitionState,
    LegacyFennelPartitioner,
    LegacyHashPartitioner,
    LegacyLDGPartitioner,
    LegacyLoomPartitioner,
)
from repro.partitioning.state import PartitionState
from repro.query.pattern import path_pattern
from repro.query.workload import Workload

from helpers import make_random_labelled_graph

K = 4


@pytest.fixture(scope="module")
def graph():
    return make_random_labelled_graph(num_vertices=300, num_edges=700, seed=11)


@pytest.fixture(scope="module")
def workload():
    return Workload(
        [
            (path_pattern(["a", "b", "a", "b"], name="abab"), 0.5),
            (path_pattern(["a", "b", "c"], name="abc"), 0.5),
        ],
        name="parity",
    )


def _states(graph):
    new = PartitionState.for_graph(K, graph.num_vertices)
    old = DictPartitionState.for_graph(K, graph.num_vertices)
    assert new.capacity == old.capacity
    return new, old


@pytest.mark.parametrize("order", ["bfs", "dfs", "random"])
def test_ldg_parity(graph, order):
    events = list(stream_edges(graph, order, seed=3))
    new, old = _states(graph)
    LDGPartitioner(new).ingest_all(events)
    LegacyLDGPartitioner(old).ingest_all(events)
    assert new.assignment() == old.assignment()


@pytest.mark.parametrize("order", ["bfs", "random"])
def test_fennel_parity(graph, order):
    events = list(stream_edges(graph, order, seed=3))
    new, old = _states(graph)
    FennelPartitioner(new, graph.num_vertices, graph.num_edges).ingest_all(events)
    LegacyFennelPartitioner(old, graph.num_vertices, graph.num_edges).ingest_all(events)
    assert new.assignment() == old.assignment()


def test_hash_parity(graph):
    events = list(stream_edges(graph, "random", seed=3))
    new, old = _states(graph)
    HashPartitioner(new, seed=7).ingest_all(events)
    LegacyHashPartitioner(old, seed=7).ingest_all(events)
    assert new.assignment() == old.assignment()


@pytest.mark.parametrize("order,window", [("bfs", 120), ("random", 200)])
def test_loom_parity(graph, workload, order, window):
    """Full-stack parity: matcher + auction + LDG fallback, end to end."""
    events = list(stream_edges(graph, order, seed=3))
    new, old = _states(graph)
    LoomPartitioner(
        new, workload, window_size=window, seed=0, defer_motif_vertices=False
    ).ingest_all(events)
    LegacyLoomPartitioner(old, workload, window_size=window, seed=0).ingest_all(events)
    assert new.assignment() == old.assignment()


@pytest.mark.parametrize("order", ["bfs", "random"])
def test_loom_parity_tight_capacity_spills(graph, workload, order):
    """Zero-slack capacity forces auctions to fill the winner mid-cluster
    and spill the tail — the path where assignment *order* matters.  The
    legacy glue aligns its spill tie-break with the live allocator's
    interner order, so parity must hold bit for bit even here."""
    import math

    events = list(stream_edges(graph, order, seed=3))
    capacity = math.ceil(graph.num_vertices / K)  # imbalance 1.0
    new = PartitionState(K, capacity)
    old = DictPartitionState(K, capacity)
    LoomPartitioner(
        new, workload, window_size=150, seed=0, defer_motif_vertices=False
    ).ingest_all(events)
    LegacyLoomPartitioner(old, workload, window_size=150, seed=0).ingest_all(events)
    assert new.assignment() == old.assignment()


def test_spill_tiebreak_parity(fig1_index):
    """When the winner fills mid-cluster, *which* vertices spill depends on
    the assignment order.  The live allocator sorts interner ids; the
    legacy glue passes interner order as ``vertex_order`` so both sides
    break the tie identically even where id order and the seed's repr
    order disagree (here: ids say 9 first, reprs say '10' first)."""
    from repro.core.allocation import EqualOpportunism
    from repro.core.matching import Match
    from repro.graph.interning import pack_edge
    from repro.partitioning.legacy import DictPartitionState, LegacyEqualOpportunism

    node = fig1_index.single_edge_motif("a", "b")

    class VertexView:
        """The match surface LegacyEqualOpportunism reads."""

        def __init__(self, vertices):
            self.vertices = frozenset(vertices)
            self.edges = frozenset()
            self.support = node.support

    results = []
    for side in ("live", "legacy"):
        if side == "live":
            state = PartitionState(2, 4)
            ids = {v: state.intern(v) for v in (1, 9, 10, 2)}  # id order: 1,9,10,2
            state.assign(1, 0)  # overlap pulls the auction to partition 0
            state.assign(("pad", 0), 0)
            state.assign(("pad", 1), 0)  # partition 0 now 3/4: one slot left
            match = Match(
                frozenset(pack_edge(ids[1], ids[v]) for v in (9, 10, 2)),
                node.node_id,
                node.support,
            )
            EqualOpportunism(state).allocate([match])
        else:
            interner = VertexInterner()
            for v in (1, 9, 10, 2):
                interner.intern(v)
            state = DictPartitionState(2, 4)
            state.assign(1, 0)
            state.assign(("pad", 0), 0)
            state.assign(("pad", 1), 0)
            LegacyEqualOpportunism(state, vertex_order=interner.id_of).allocate(
                [VertexView([1, 9, 10, 2])]
            )
        assignment = state.assignment()
        assert sum(1 for v in (9, 10, 2) if assignment[v] == 0) == 1  # spill happened
        results.append({v: assignment[v] for v in (1, 9, 10, 2)})
    assert results[0] == results[1]
    assert results[0][9] == 0  # id order: 9 takes the last slot, 10 and 2 spill


def test_loom_parity_neighbor_aware_bids(graph, workload):
    """The ablation bid path (id-keyed in the live stack, vertex-keyed in
    the legacy one) must count the same overlaps."""
    events = list(stream_edges(graph, "random", seed=5))
    new, old = _states(graph)
    LoomPartitioner(
        new, workload, window_size=150, seed=0, neighbor_aware_bids=True,
        defer_motif_vertices=False,
    ).ingest_all(events)
    LegacyLoomPartitioner(
        old, workload, window_size=150, seed=0, neighbor_aware_bids=True
    ).ingest_all(events)
    assert new.assignment() == old.assignment()


def test_loom_assignments_bit_identical_pre_post_compile():
    """Full-pipeline pre/post compile parity on a labelled random graph.

    The digest was produced by the pre-plan object-walking matcher
    (commit c3a4385) on this exact seeded configuration; the compiled
    MotifPlan pipeline must reproduce it bit for bit — with the deferral
    queue off, which that matcher never had.  (The synthetic stream twins
    live in ``tests/test_plan.py``, which also pins the default.)
    """
    import hashlib
    import json

    from repro.datasets.figure1 import figure1_workload

    g = make_random_labelled_graph(num_vertices=250, num_edges=600, seed=21)
    events = list(stream_edges(g, "random", seed=5))
    state = PartitionState.for_graph(5, g.num_vertices)
    LoomPartitioner(
        state, figure1_workload(), window_size=120, seed=3, defer_motif_vertices=False
    ).ingest_all(events)
    blob = json.dumps(sorted((repr(v), p) for v, p in state.assignment().items())).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == "29ef5bbfad7b167448f3ed8454f5a58a99300a937f33c5da4f1ffebf5c3f1bd2"
    )


def test_parity_on_synthetic_stream():
    """The benchmark's stream generator feeds both stacks identically."""
    events = list(synthetic_stream(500, 1_500, seed=9))
    vertices = {ev.u for ev in events} | {ev.v for ev in events}
    new = PartitionState.for_graph(8, len(vertices))
    old = DictPartitionState.for_graph(8, len(vertices))
    LDGPartitioner(new).ingest_all(events)
    LegacyLDGPartitioner(old).ingest_all(events)
    assert new.assignment() == old.assignment()
    assert new.num_assigned == len(vertices)
