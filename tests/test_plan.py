"""MotifPlan ⇔ MotifIndex equivalence: the compile step is representation only.

The plan is a lowering of the object index — every lookup must agree with
the object-level answer under the node ↔ state bijection:

* root lookups for **every label pair** (motif, non-motif, unknown),
* successor lookups for **every (state, delta) probe** — every delta key
  appearing anywhere in the trie, plus every (label, label, degree, degree)
  combination in the matcher's probe domain,
* per-state metadata arrays against the nodes they were lowered from,

on the paper's fixture workloads *and* on randomized workloads.  Finally,
full-pipeline assignments must be **bit-identical pre/post compile**: the
golden digests below were produced by the pre-plan (object-walking)
matcher on seeded streams, and the compiled pipeline must reproduce them
exactly.
"""

import hashlib
import json
import math
import random

import pytest

from repro.core.loom import LoomPartitioner
from repro.core.motifs import MotifIndex
from repro.core.plan import NO_STATE, MotifPlan
from repro.core.signature import pack_delta_key
from repro.core.tpstry import TPSTry
from repro.graph.stream import synthetic_stream
from repro.partitioning.state import PartitionState
from repro.query.pattern import cycle_pattern, path_pattern
from repro.query.workload import Workload

ALPHABET = ["a", "b", "c", "d", "e"]


def random_workload(seed: int) -> Workload:
    """A few random path/cycle patterns with random frequencies."""
    rng = random.Random(seed)
    entries = []
    total = rng.randint(2, 4)
    weights = [rng.randint(1, 10) for _ in range(total)]
    norm = sum(weights)
    for i in range(total):
        length = rng.randint(2, 4)
        labels = [rng.choice(ALPHABET) for _ in range(length + 1)]
        if rng.random() < 0.3 and length >= 3:
            pattern = cycle_pattern(labels[:-1], name=f"q{i}")
        else:
            pattern = path_pattern(labels, name=f"q{i}")
        entries.append((pattern, weights[i] / norm))
    return Workload(entries, name=f"rand{seed}")


def all_delta_keys(trie: TPSTry):
    """Every factor-delta key appearing on any trie edge (not just motifs)."""
    keys = set()
    for node in trie.nodes(include_root=True):
        keys.update(node.children_by_delta)
    return keys


def assert_plan_matches_index(index: MotifIndex, plan: MotifPlan) -> None:
    trie = index.trie
    state_of = {n.node_id: s for s, n in enumerate(index.motifs)}

    # -- state metadata ------------------------------------------------
    assert plan.num_states == index.num_motifs
    for state, node in enumerate(index.motifs):
        assert plan.node_of(state) is node
        assert plan.state_of(node) == state
        assert plan.support[state] == node.support
        assert plan.num_edges[state] == node.num_edges
        assert plan.extensible[state] == (node.node_id in index.extensible_ids)
        exemplar = node.exemplar
        assert plan.max_degree[state] == max(
            exemplar.degree(v) for v in exemplar.vertices()
        )
    assert plan.max_motif_edges == index.max_motif_edges
    for node in trie.nodes():
        if node.node_id not in state_of:
            assert plan.state_of(node) is None

    # -- root lookup: every ordered label pair, plus unknown labels ----
    labels = sorted(trie.scheme.known_labels()) + ["zz-unknown"]
    for lu in labels:
        for lv in labels:
            node = index.single_edge_motif(lu, lv)
            state, lu_id, lv_id = plan.root_entry(lu, lv)
            if node is None:
                assert state == NO_STATE
            else:
                assert state == state_of[node.node_id]
            assert plan.labels.label(lu_id) == lu
            assert plan.labels.label(lv_id) == lv

    # -- successor lookup: every (motif state, delta key) probe --------
    deltas = all_delta_keys(trie)
    for state, node in enumerate(index.motifs):
        for delta_key in deltas:
            expected = [
                state_of[c.node_id]
                for c in index.motif_children_by_key(node, delta_key)
            ]
            assert list(plan.successors_by_delta_key(state, delta_key)) == expected

    # -- probe-domain equivalence: (labels × degrees) → successors -----
    max_deg = max(plan.max_degree, default=0)
    scheme = trie.scheme
    known = sorted(scheme.known_labels())
    for lu in known:
        for lv in known:
            lu_id = plan.labels.id_of(lu)
            lv_id = plan.labels.id_of(lv)
            for du in range(max_deg + 1):
                for dv in range(max_deg + 1):
                    delta_key = scheme.addition_key(lu, lv, du, dv)
                    for state, node in enumerate(index.motifs):
                        expected = [
                            state_of[c.node_id]
                            for c in index.motif_children_by_key(node, delta_key)
                        ]
                        got = list(plan.successors(state, lu_id, lv_id, du, dv))
                        assert got == expected


class TestFixtureEquivalence:
    def test_fig1_plan_matches_index(self, fig1_index):
        assert_plan_matches_index(fig1_index, fig1_index.compile())

    def test_fig5_plan_matches_index(self, fig5_workload):
        index = MotifIndex(TPSTry.from_workload(fig5_workload), 0.4)
        assert_plan_matches_index(index, index.compile())

    def test_tpstry_compile_convenience(self, fig5_workload):
        trie = TPSTry.from_workload(fig5_workload)
        plan = trie.compile(0.4)
        assert plan.num_states == MotifIndex(trie, 0.4).num_motifs

    def test_low_threshold_admits_whole_trie(self, fig1_trie):
        index = MotifIndex(fig1_trie, 0.05)
        plan = index.compile()
        assert plan.num_states == fig1_trie.num_nodes
        assert_plan_matches_index(index, plan)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_workload_plan_matches_index(self, seed):
        workload = random_workload(seed)
        trie = TPSTry.from_workload(workload)
        for threshold in (0.2, 0.4, 0.8):
            index = MotifIndex(trie, threshold)
            assert_plan_matches_index(index, index.compile())

    @pytest.mark.parametrize("seed", range(6))
    def test_delta_id_agrees_with_packed_key(self, seed):
        """``delta_id`` (the matcher's memoised slow path) answers exactly
        like packing the scheme's addition key by hand."""
        workload = random_workload(seed)
        index = MotifIndex(TPSTry.from_workload(workload), 0.4)
        plan = index.compile()
        scheme = index.scheme
        bits = scheme.factor_bits
        labels = sorted(scheme.known_labels())
        for lu in labels:
            for lv in labels:
                for du in range(4):
                    for dv in range(4):
                        packed = pack_delta_key(
                            scheme.addition_key(lu, lv, du, dv), bits
                        )
                        expected = plan._delta_ids.get(packed, NO_STATE)
                        got = plan.delta_id(
                            plan.labels.id_of(lu), plan.labels.id_of(lv), du, dv
                        )
                        assert got == expected


class TestPlanStructure:
    def test_states_are_dense_and_node_id_ordered(self, fig5_workload):
        plan = TPSTry.from_workload(fig5_workload).compile(0.4)
        node_ids = [plan.node_of(s).node_id for s in range(plan.num_states)]
        assert node_ids == sorted(node_ids)

    def test_workload_labels_interned_eagerly_and_sorted(self, fig1_index):
        plan = fig1_index.compile()
        workload_labels = sorted(fig1_index.scheme.known_labels())
        assert list(plan.labels.labels())[: len(workload_labels)] == workload_labels

    def test_shared_label_interner_across_recompiles(self, fig1_index):
        plan1 = fig1_index.compile()
        plan2 = fig1_index.compile(labels=plan1.labels)
        assert plan2.labels is plan1.labels
        assert plan2.root_entry("a", "b") == plan1.root_entry("a", "b")

    def test_motif_labels_are_the_labels_motif_vertices_carry(self, fig1_index):
        """a-b, b-c and a-b-c are fig. 1's 40% motifs; ``d`` occurs in the
        workload but only in a query below the threshold."""
        plan = fig1_index.compile()
        assert plan.motif_labels == {"a", "b", "c"}
        assert "d" in fig1_index.scheme.known_labels()

    def test_root_memo_caches_misses(self, fig1_index):
        plan = fig1_index.compile()
        assert plan.root_entry("x", "y")[0] == NO_STATE
        assert ("x", "y") in plan._root_memo  # the miss is memoised


GOLDEN_DIGESTS = {
    # sha256 over the sorted (repr(vertex), partition) assignment, produced
    # by the PRE-plan object-walking matcher (commit c3a4385) on these
    # exact seeded configurations.  The compiled pipeline must reproduce
    # them bit for bit: the plan is a representation change, not a
    # behavioural one.  That matcher had no deferral queue, so these are
    # the ``defer_motif_vertices=False`` values.
    "synthetic-500v-3000e": "71a3ec72a577d25fc02c7a875115b2df82b7722b404cc48ed422a147b35b4980",
    "synthetic-tight-capacity": "a0da42f44b89860754d3f898287cf866044d48276f4c740123e13b24ea7da3f3",
}

DEFERRAL_DIGESTS = {
    # The same configurations with the deferral queue on (the default),
    # pinned by the PR that introduced it: motif-label endpoints of
    # non-motif edges wait one window turnover instead of being LDG-placed.
    "synthetic-500v-3000e": "6cd78cbe1949344a7815670e7d20a742e32bfeb2fc4946d57b3e06f93c66447b",
    "synthetic-tight-capacity": "abc394efac9db3ab7153661466631b19c9c318f83da1a20293becc9e32433836",
}


def _digest(assignment) -> str:
    blob = json.dumps(sorted((repr(v), p) for v, p in assignment.items())).encode()
    return hashlib.sha256(blob).hexdigest()


def _loom_digest(state, workload, events, window_size, defer) -> str:
    LoomPartitioner(
        state, workload, window_size=window_size, seed=0, defer_motif_vertices=defer
    ).ingest_all(events)
    return _digest(state.assignment())


class TestPrePostCompileBitExact:
    """Full-pipeline assignments are bit-identical pre/post compile — each
    golden asserted twice: at the pre-plan value with the deferral queue
    off, and at its own pinned value with it on."""

    @pytest.fixture
    def wl5(self, fig5_workload):
        return fig5_workload

    def test_synthetic_stream_golden(self, wl5):
        events = list(synthetic_stream(500, 3000, seed=9))
        for defer, pinned in ((False, GOLDEN_DIGESTS), (True, DEFERRAL_DIGESTS)):
            state = PartitionState.for_graph(4, 500)
            digest = _loom_digest(state, wl5, events, 300, defer)
            assert digest == pinned["synthetic-500v-3000e"], defer

    def test_tight_capacity_golden(self, wl5):
        """Zero-slack capacity exercises the mid-cluster spill path."""
        events = list(synthetic_stream(300, 2000, seed=13))
        for defer, pinned in ((False, GOLDEN_DIGESTS), (True, DEFERRAL_DIGESTS)):
            state = PartitionState(4, math.ceil(300 / 4))
            digest = _loom_digest(state, wl5, events, 150, defer)
            assert digest == pinned["synthetic-tight-capacity"], defer
