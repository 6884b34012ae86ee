"""Figure 7: ipt % vs Hash over 8-way partitionings, three stream orders.

Each benchmark measures one (dataset, order) cell: partitioning with all
four systems plus workload execution.  The relative-ipt outcome (the bar
heights of Fig. 7) is attached as extra_info and checked for the paper's
shape: every informed system beats Hash, and Loom — the one system that
knows the workload — has strictly the lowest ipt of the three in every
cell.  ipt is an exact count, so the comparison needs no tolerance.
"""

import pytest

from bench_config import BENCH_SEED

from repro.bench.harness import compare_systems, scaled_window

ORDERS = ("random", "bfs", "dfs")
DATASETS = ("dblp", "provgen", "musicbrainz", "lubm-100")


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", DATASETS)
def test_fig7_cell(benchmark, datasets, name, order):
    dataset = datasets[name]
    window = scaled_window(dataset.graph)

    result = benchmark.pedantic(
        compare_systems,
        args=(dataset,),
        kwargs=dict(order=order, k=8, window_size=window, seed=BENCH_SEED),
        iterations=1,
        rounds=1,
    )
    rel = {s: result.relative_ipt(s) for s in ("ldg", "fennel", "loom")}
    benchmark.extra_info.update({f"{s}_vs_hash_pct": round(v, 1) for s, v in rel.items()})

    # Shape checks (paper Sec. 5.2): informed partitioners beat Hash...
    for system, value in rel.items():
        assert value < 100.0, f"{system} should beat Hash on {name}/{order}"
    # ...and the workload-aware one beats both workload-agnostic ones.
    assert rel["loom"] < min(rel["ldg"], rel["fennel"]), rel


@pytest.mark.parametrize("name", DATASETS)
def test_fig7_loom_wins_random_order(benchmark, datasets, name):
    """Random order is pseudo-adversarial for one-shot heuristics (LDG and
    Fennel collapse into one rule there); Loom's window restores locality,
    so it wins by a wide margin, not just strictly (7.9–33.6 points at
    bench scale; the gate asks for 5)."""
    dataset = datasets[name]
    result = benchmark.pedantic(
        compare_systems,
        args=(dataset,),
        kwargs=dict(
            order="random", k=8, window_size=scaled_window(dataset.graph), seed=BENCH_SEED
        ),
        iterations=1,
        rounds=1,
    )
    loom = result.relative_ipt("loom")
    fennel = result.relative_ipt("fennel")
    benchmark.extra_info.update(
        {"loom_vs_hash_pct": round(loom, 1), "fennel_vs_hash_pct": round(fennel, 1)}
    )
    assert loom < fennel - 5.0
