"""Pins of one Loom pass over the reference benchmark's input.

The benchmark's ``ingest-loom`` / ``serve-*`` workloads stream musicbrainz
through Loom (BFS order, k = 8, window |E| / 8, seed 7, 2048-edge batches);
this module runs that pass at 8k vertices through ``repro`` alone and pins
what it decides, so a change to the matcher's or the window's internals
must leave every decision where it was:

* the assignment digest in ``benchmarks/e2e/run.py``'s form — sha256 of
  ``repr(state.export_assignment())``;
* the full :class:`~repro.core.matching.MatcherStats` and Loom's ``stats``;
* every eviction, in order: its edge key and the ``(edges, state)`` of
  each match of its support-sorted match set;
* the matchList arena — ``(match id, edges, state)`` of every live match —
  after the first batch that leaves the window at its fullest, so match-id
  recycling is pinned too;
* a split run: the first half of the stream, ``finalize``, the second
  half, ``finalize`` — the path that reuses a drained window.

Every value is independent of ``PYTHONHASHSEED``; CI runs this module
under two seeds.
"""

import hashlib

import pytest

from repro.graph.stream import batched

from helpers import BENCH_BATCH_EDGES, bench_loom_input, new_bench_loom

ASSIGNMENT_DIGEST = "a5c8a50cc94981149431642c1f762e1cb9284cf0af309ad0863b42c88258d184"
EVICTIONS_DIGEST = "df4aab10792e3807f47371f6da309dea0be4b02b06c6c8f5189b8506dd5c1da5"
FULLEST_BATCH = 5
FULLEST_ARENA_DIGEST = "d235e2e98ceb760211635da090d2b98968aff24fef608a7cd5ab995ad7f043ea"
SPLIT_DIGEST = "933005b58c89831f0031e27f3788fcabbf24e6062da6983e60171b810671df90"

MATCHER_STATS = {
    "plan_states": 4,
    "edges_offered": 19569,
    "edges_windowed": 4906,
    "edges_bypassed": 14663,
    "matches_created": 11236,
    "pair_joins": 0,
    "capped_registrations": 3722,
    "label_conflicts": 0,
    "root_hits": 4906,
    "extension_probes": 10052,
    "leaf_gate_skips": 36929,
}

LOOM_STATS = {
    "immediate_assignments": 14663,
    "evictions": 2555,
    "fallback_allocations": 129,
    "cluster_edges_assigned": 4906,
    "deferred_vertices": 1496,
    "deferred_claimed": 1245,
    "deferred_aged_out": 251,
    "deferred_peak": 1249,
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.fixture(scope="module")
def bench_input():
    return bench_loom_input()


@pytest.fixture(scope="module")
def full_pass(bench_input):
    """One recorded pass: every eviction as Loom received it, and the
    arena after the first batch that leaves the window at its fullest."""
    dataset, events = bench_input
    loom = new_bench_loom(dataset, events)
    matcher = loom.matcher
    evictions = []
    next_eviction = matcher.next_eviction

    def recording_next_eviction():
        eviction = next_eviction()
        evictions.append((eviction.ekey, [(m.edges, m.state) for m in eviction.matches]))
        return eviction

    matcher.next_eviction = recording_next_eviction
    fullest = (-1, None, None)
    for index, batch in enumerate(batched(events, BENCH_BATCH_EDGES)):
        loom.ingest_batch(batch)
        if len(matcher.window) > fullest[0]:
            arena = [
                (mid, m.edges, m.state)
                for mid, m in enumerate(matcher.matchlist._arena)
                if m is not None
            ]
            fullest = (len(matcher.window), index, _sha(arena))
    loom.finalize()
    return loom, evictions, fullest


def test_assignment_digest(full_pass):
    loom, _, _ = full_pass
    assert _sha(loom.state.export_assignment()) == ASSIGNMENT_DIGEST


def test_matcher_stats(full_pass):
    loom, _, _ = full_pass
    assert loom.matcher.stats.as_dict() == MATCHER_STATS


def test_loom_stats(full_pass):
    loom, _, _ = full_pass
    assert loom.stats == LOOM_STATS


def test_every_eviction(full_pass):
    loom, evictions, _ = full_pass
    assert len(evictions) == LOOM_STATS["evictions"]
    assert _sha(evictions) == EVICTIONS_DIGEST


def test_arena_at_the_fullest_window(full_pass):
    loom, _, (occupancy, index, digest) = full_pass
    assert occupancy == loom.matcher.window.capacity
    assert (index, digest) == (FULLEST_BATCH, FULLEST_ARENA_DIGEST)


def test_split_run_digest(bench_input):
    dataset, events = bench_input
    loom = new_bench_loom(dataset, events)
    half = len(events) // 2
    for part in (events[:half], events[half:]):
        for batch in batched(part, BENCH_BATCH_EDGES):
            loom.ingest_batch(batch)
        loom.finalize()
    assert loom.window_occupancy == 0
    assert _sha(loom.state.export_assignment()) == SPLIT_DIGEST
