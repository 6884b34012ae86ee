"""Tests for equal-opportunism allocation (Sec. 4, Eqs. 1-3).

The auction consumes id-based matches; tests intern vertices through the
state under test so match ids index its assignment vector, exactly as the
matcher-sharing Loom pipeline does.
"""

import math
import random

import pytest

from repro.core.allocation import EqualOpportunism
from repro.core.matching import Match
from repro.graph.interning import pack_edge
from repro.partitioning.state import PartitionState


@pytest.fixture
def ab_node(fig1_index):
    return fig1_index.single_edge_motif("a", "b")


@pytest.fixture
def abc_node(fig1_trie):
    from repro.query.pattern import path_pattern

    return fig1_trie.node_for_graph(path_pattern(["a", "b", "c"]))


def id_match(state: PartitionState, node, *pairs) -> Match:
    """A match over ``pairs`` of vertex objects, interned into ``state``.

    The auction reads only ``vertices``/``edges``/``support`` from a match;
    the plan state id is irrelevant here, so the trie node's own id stands
    in for it and the node's support is denormalised as the matcher does.
    """
    return Match(
        frozenset(pack_edge(state.intern(u), state.intern(v)) for u, v in pairs),
        node.node_id,
        node.support,
    )


def single_match(state, node, u=1, v=2) -> Match:
    return id_match(state, node, (u, v))


class TestRation:
    def test_smallest_partition_gets_full_ration(self, ab_node):
        state = PartitionState(2, 100)
        eo = EqualOpportunism(state)
        assert eo.ration(0) == 1.0
        assert eo.ration(1) == 1.0

    def test_paper_worked_example(self, ab_node):
        """Sec. 4's example: S1 33.3% larger than S2 => l(S1) = 1/2."""
        state = PartitionState(2, 1000)
        for v in range(40):
            state.assign(("s1", v), 0)
        for v in range(30):
            state.assign(("s2", v), 1)
        eo = EqualOpportunism(state)
        assert eo.ration(0) == pytest.approx(0.5)
        assert eo.ration(1) == 1.0

    def test_full_partition_rations_to_zero(self, ab_node):
        state = PartitionState(2, 4)
        for v in range(4):
            state.assign(v, 0)
        eo = EqualOpportunism(state)
        assert eo.ration(0) == 0.0


class TestBid:
    def test_bid_formula(self, ab_node):
        """bid = N(Si, Ek) * (1 - |V(Si)|/C) * supp(mk) — Eq. 1."""
        state = PartitionState(2, 10)
        state.assign(1, 0)
        eo = EqualOpportunism(state)
        match = single_match(state, ab_node)  # vertices {1, 2}, support 1.0
        expected = 1 * (1 - 1 / 10) * 1.0
        assert eo.bid(0, match) == pytest.approx(expected)

    def test_bid_zero_without_overlap(self, ab_node):
        state = PartitionState(2, 10)
        eo = EqualOpportunism(state)
        assert eo.bid(0, single_match(state, ab_node)) == 0.0


class TestAllocate:
    def test_winner_takes_overlapping_cluster(self, ab_node, abc_node):
        state = PartitionState(2, 100)
        state.assign(2, 0)  # vertex 2 already in partition 0
        eo = EqualOpportunism(state)
        m1 = single_match(state, ab_node, 1, 2)
        m2 = id_match(state, abc_node, (1, 2), (2, 3))
        decision = eo.allocate([m1, m2])
        assert decision.winner == 0
        assert not decision.fallback
        assert state.partition_of(1) == 0
        assert state.partition_of(3) == 0

    def test_all_vertices_of_prefix_assigned(self, ab_node):
        state = PartitionState(2, 100)
        eo = EqualOpportunism(state)
        decision = eo.allocate([single_match(state, ab_node, 5, 6)])
        assert decision.assigned_vertices == {
            state.interner.id_of(5),
            state.interner.id_of(6),
        }
        assert state.partition_of(5) == state.partition_of(6)

    def test_fallback_when_no_overlap(self, ab_node):
        state = PartitionState(2, 100)
        eo = EqualOpportunism(state)
        decision = eo.allocate([single_match(state, ab_node)])
        assert decision.fallback

    def test_fallback_chooser_used(self, ab_node):
        state = PartitionState(4, 100)
        eo = EqualOpportunism(state)
        decision = eo.allocate(
            [single_match(state, ab_node)], fallback_chooser=lambda ids: 3
        )
        assert decision.winner == 3
        assert state.partition_of(1) == 3

    def test_fallback_chooser_receives_cluster_ids(self, ab_node):
        state = PartitionState(4, 100)
        eo = EqualOpportunism(state)
        seen = {}

        def chooser(ids):
            seen["ids"] = set(ids)
            return 0

        decision = eo.allocate([single_match(state, ab_node)], fallback_chooser=chooser)
        assert seen["ids"] == {state.interner.id_of(1), state.interner.id_of(2)}
        assert decision.winner == 0

    def test_fallback_prefers_least_loaded(self, ab_node):
        state = PartitionState(2, 100)
        state.assign(("pad", 0), 0)
        state.assign(("pad", 1), 0)
        eo = EqualOpportunism(state)
        decision = eo.allocate([single_match(state, ab_node)])
        assert decision.winner == 1

    def test_empty_cluster_rejected(self, ab_node):
        eo = EqualOpportunism(PartitionState(2, 10))
        with pytest.raises(ValueError):
            eo.allocate([])

    def test_at_least_one_match_assigned(self, ab_node):
        """Even a fully-rationed winner takes the evicted edge's match."""
        state = PartitionState(2, 3)
        state.assign(("pad", 0), 0)
        state.assign(("pad", 1), 0)
        state.assign(("pad", 2), 1)
        eo = EqualOpportunism(state)
        decision = eo.allocate([single_match(state, ab_node)])
        assert len(decision.assigned_matches) == 1

    def test_rationed_winner_takes_prefix_only(self, ab_node, abc_node):
        """A larger partition bids on (and takes) a support-sorted prefix."""
        state = PartitionState(2, 1000)
        for v in range(40):
            state.assign(("s1", v), 0)
        for v in range(30):
            state.assign(("s2", v), 1)
        state.assign(2, 0)  # overlap pulls toward partition 0 (the larger)
        eo = EqualOpportunism(state)
        m1 = single_match(state, ab_node, 1, 2)
        m2 = id_match(state, abc_node, (1, 2), (2, 3))
        m3 = id_match(state, abc_node, (1, 2), (2, 4))
        m4 = id_match(state, abc_node, (1, 2), (2, 5))
        decision = eo.allocate([m1, m2, m3, m4])
        assert decision.winner == 0
        # l(S0) = 0.5 => ceil(0.5 * 4) = 2 matches taken, not all 4.
        assert len(decision.assigned_matches) == 2
        assert not state.is_assigned(5)

    def test_tie_goes_to_smaller_partition(self, ab_node):
        state = PartitionState(2, 100)
        state.assign(("pad", 0), 0)  # partition 0 bigger, no overlap anywhere
        eo = EqualOpportunism(state)
        decision = eo.allocate([single_match(state, ab_node)])
        assert decision.winner == 1

    def test_spill_tiebreak_follows_interner_order(self, ab_node):
        """When the winner fills mid-cluster, *which* vertices spill depends
        on the assignment order: the allocator sorts interner ids, so the
        last slot goes to 9 even though repr order would put '10' first."""
        state = PartitionState(2, 4)
        state.assign(1, 0)  # overlap pulls the auction to partition 0
        state.assign(("pad", 0), 0)
        state.assign(("pad", 1), 0)  # partition 0 now 3/4: one slot left
        match = id_match(state, ab_node, (1, 9), (1, 10), (1, 2))  # id order: 9, 10, 2
        EqualOpportunism(state).allocate([match])
        assignment = state.assignment()
        assert sum(1 for v in (9, 10, 2) if assignment[v] == 0) == 1  # spill happened
        assert assignment[9] == 0  # id order: 9 takes the last slot, 10 and 2 spill


class TestAllocateOracle:
    """``allocate`` scores every partition in one pass over the cluster;
    :meth:`~EqualOpportunism.bid` and :meth:`~EqualOpportunism.ration` are
    the per-partition forms of Eqs. 1 and 2.  The two must agree exactly:
    partition ``i``'s bid is the sum of its per-match bids over the prefix
    its ration allows, in support order."""

    SUPPORTS = (1.0, 0.75, 0.6, 0.45, 1.0 / 3.0, 0.2)

    def _case(self, rng: random.Random):
        k = rng.randint(2, 6)
        capacity = rng.randint(4, 40)
        state = PartitionState(k, capacity)
        pool = list(range(rng.randint(3, 16)))
        # Some cluster vertices are placed already (the overlap N), the
        # rest of each partition's size is padding (only |V(Si)| counts).
        for v in pool:
            if rng.random() < 0.4:
                p = rng.randrange(k)
                if state.size(p) < capacity:
                    state.assign(v, p)
        for p in range(k):
            target = rng.randint(0, capacity)
            pad = 0
            while state.size(p) < target:
                state.assign(("pad", p, pad), p)
                pad += 1
        matches = []
        for _ in range(rng.randint(1, 8)):
            pairs = set()
            for _ in range(rng.randint(1, 4)):
                u, v = rng.sample(pool, 2)
                pairs.add((u, v))
            matches.append(
                Match(
                    frozenset(pack_edge(state.intern(u), state.intern(v)) for u, v in pairs),
                    0,
                    rng.choice(self.SUPPORTS),
                )
            )
        matches.sort(key=lambda m: m._sort_key)
        return state, matches

    def test_bids_equal_rationed_prefix_sums(self):
        rng = random.Random(20260727)
        binding = 0
        for _ in range(400):
            state, matches = self._case(rng)
            eo = EqualOpportunism(state)
            expected = []
            for i in range(state.k):
                r = eo.ration(i)
                prefix = len(matches) if r >= 1.0 else math.ceil(r * len(matches))
                binding += prefix < len(matches)
                expected.append(sum(eo.bid(i, m) for m in matches[:prefix]))
            decision = eo.allocate(matches)
            assert decision.bids == expected
        assert binding > 100  # the rationed prefixes are exercised, not just full ones
