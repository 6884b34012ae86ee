"""Ablation benchmarks for Loom's design choices (DESIGN.md Sec. 5).

Each variant partitions the same random-order musicbrainz stream; relative
ipt lands in extra_info.  These are the knobs the paper motivates —
rationing (Eq. 2), support weighting (Eq. 1), the window itself — plus
three implementation choices (parking motif-label vertices that a non-motif
edge meets first, bid overlap mode, the per-vertex match cap).
"""

import pytest

from bench_config import BENCH_SEED

from repro.bench.harness import run_system, scaled_window
from repro.graph.stream import stream_edges
from repro.query.executor import WorkloadExecutor

VARIANTS = {
    "full": {},
    "no_deferral": {"defer_motif_vertices": False},
    "no_rationing": {"rationing_enabled": False},
    "no_support_weighting": {"support_weighting": False},
    "neighbor_aware_bids": {"neighbor_aware_bids": True},
    "low_match_cap": {"max_matches_per_vertex": 4},
}


@pytest.fixture(scope="module")
def ablation_setup(datasets):
    dataset = datasets["musicbrainz"]
    events = list(stream_edges(dataset.graph, "random", seed=BENCH_SEED))
    executor = WorkloadExecutor(dataset.graph, dataset.workload)
    hash_run = run_system(
        "hash", dataset.graph, dataset.workload, events, 8,
        seed=BENCH_SEED, executor=executor,
    )
    return dataset, events, executor, hash_run


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_ablation_variant(benchmark, ablation_setup, variant):
    dataset, events, executor, hash_run = ablation_setup
    window = scaled_window(dataset.graph)

    def run():
        return run_system(
            "loom", dataset.graph, dataset.workload, events, 8,
            window_size=window, seed=BENCH_SEED, executor=executor,
            loom_kwargs=VARIANTS[variant],
        )

    loom_run = benchmark.pedantic(run, iterations=1, rounds=1)
    rel = loom_run.report.relative_to(hash_run.report)
    benchmark.extra_info["ipt_vs_hash_pct"] = round(rel, 1)
    assert rel < 100.0  # every variant still beats Hash


def test_ablation_tiny_window_hurts(ablation_setup):
    """Removing the window (shrinking it to near nothing) must cost
    quality — the window is the mechanism, so this is the key ablation."""
    dataset, events, executor, hash_run = ablation_setup
    window = scaled_window(dataset.graph)
    full = run_system(
        "loom", dataset.graph, dataset.workload, events, 8,
        window_size=window, seed=BENCH_SEED, executor=executor,
    )
    tiny = run_system(
        "loom", dataset.graph, dataset.workload, events, 8,
        window_size=10, seed=BENCH_SEED, executor=executor,
    )
    assert full.report.weighted_ipt < tiny.report.weighted_ipt


def test_ablation_no_deferral_hurts(ablation_setup):
    """Letting a non-motif edge pin motif-label vertices pre-empts the
    matcher: with the deferral queue off, ipt must be worse."""
    dataset, events, executor, hash_run = ablation_setup
    window = scaled_window(dataset.graph)
    full, no_deferral = (
        run_system(
            "loom", dataset.graph, dataset.workload, events, 8,
            window_size=window, seed=BENCH_SEED, executor=executor,
            loom_kwargs=kwargs,
        )
        for kwargs in (VARIANTS["full"], VARIANTS["no_deferral"])
    )
    assert full.report.weighted_ipt < no_deferral.report.weighted_ipt
