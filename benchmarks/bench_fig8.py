"""Figure 8: ipt % vs Hash across k ∈ {2, 8, 32}, breadth-first streams.

The paper's observation: absolute ipt grows with k for everyone, so the
*relative* standings stay largely consistent.  Each cell's relative ipt is
attached as extra_info; the shape check asserts the standings: Loom has
strictly the lowest ipt of LDG / Fennel / Loom in every cell but one.
"""

import pytest

from bench_config import BENCH_SEED

from repro.bench.harness import compare_systems, scaled_window

KS = (2, 8, 32)
DATASETS = ("dblp", "provgen", "musicbrainz", "lubm-100")

#: The cells where Loom is *not* the best of the three at bench scale, kept
#: on the old bound (no system loses to Hash).  With two partitions and a
#: breadth-first stream LDG's single boundary is hard to beat: provgen k=2
#: reads LDG 34.4 / Fennel 48.0 / Loom 38.6 here.  At scale 1.0 the same
#: cell is level (44.53 / 52.36 / 44.54) and lubm-100 k=2 is the one behind
#: (47.3 / 67.4 / 51.8) — ``python -m repro.bench figure8``.
LOOM_NOT_BEST = {("provgen", 2)}


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", DATASETS)
def test_fig8_cell(benchmark, datasets, name, k):
    dataset = datasets[name]
    result = benchmark.pedantic(
        compare_systems,
        args=(dataset,),
        kwargs=dict(order="bfs", k=k, window_size=scaled_window(dataset.graph), seed=BENCH_SEED),
        iterations=1,
        rounds=1,
    )
    rel = {s: result.relative_ipt(s) for s in ("ldg", "fennel", "loom")}
    benchmark.extra_info.update({f"{s}_vs_hash_pct": round(v, 1) for s, v in rel.items()})
    for system, value in rel.items():
        assert value < 105.0, f"{system} should not lose to Hash on {name} k={k}"
    if (name, k) not in LOOM_NOT_BEST:
        assert rel["loom"] < min(rel["ldg"], rel["fennel"]), rel


@pytest.mark.parametrize("name", ("provgen", "musicbrainz"))
def test_fig8_absolute_ipt_grows_with_k(benchmark, datasets, name):
    """More partitions => more boundaries => more absolute ipt (Sec. 5.2)."""
    dataset = datasets[name]

    def run():
        out = {}
        for k in (2, 8):
            result = compare_systems(
                dataset,
                order="bfs",
                k=k,
                window_size=scaled_window(dataset.graph),
                seed=BENCH_SEED,
            )
            out[k] = result.runs["loom"].report.weighted_ipt
        return out

    ipt_by_k = benchmark.pedantic(run, iterations=1, rounds=1)
    benchmark.extra_info.update({f"loom_ipt_k{k}": round(v, 1) for k, v in ipt_by_k.items()})
    assert ipt_by_k[8] > ipt_by_k[2]
