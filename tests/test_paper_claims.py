"""The paper's evaluation claims, asserted on every PR, and their values pinned.

One of two thin callers of :mod:`repro.bench.experiments` (``python -m
repro.bench`` prints the same rows for a human and for CI's nightly job):
each figure is computed once per module at scale 0.5, seed 0
— 1 000–1 600 vertices, Loom's window 12 % of the stream — and every cell
of it is one test id.

ipt is an exact count, so the claims carry no tolerance and the pins are
compared with ``==``: a change that moves ipt re-pins here and says so.
To re-pin, paste from ``python -m repro.bench figure7 --scale 0.5`` (and
``figure8``, ``figure9``, ``ablation``).
"""

import pytest

from repro.bench import experiments
from repro.datasets.registry import IPT_DATASETS, available_datasets

SCALE, SEED = 0.5, 0
ORDERS, KS = ("random", "bfs", "dfs"), (2, 8, 32)

#: ipt as % of Hash on the identical stream, (LDG, Fennel, Loom) per cell.
#: Fig. 7: k = 8; one column per stream order, random / bfs / dfs.
FIG7 = {
    "dblp": [(69.1, 69.1, 54.5), (77.2, 57.6, 39.0), (59.8, 59.9, 37.9)],
    "provgen": [(58.2, 58.2, 50.3), (50.8, 48.5, 37.9), (42.2, 40.4, 36.6)],
    "musicbrainz": [(74.4, 74.4, 44.7), (78.7, 64.2, 27.6), (54.8, 56.7, 28.4)],
    "lubm-100": [(75.7, 75.7, 42.1), (75.5, 67.9, 51.4), (42.6, 52.6, 33.1)],
}
#: Fig. 8: breadth-first streams; one column per k, 2 / 8 / 32.
FIG8 = {
    "dblp": [(55.6, 60.3, 35.5), (77.2, 57.6, 39.0), (69.7, 67.4, 45.9)],
    "provgen": [(34.4, 48.0, 38.6), (50.8, 48.5, 37.9), (53.5, 51.9, 49.6)],
    "musicbrainz": [(48.1, 78.0, 26.4), (78.7, 64.2, 27.6), (67.5, 68.4, 40.1)],
    "lubm-100": [(60.1, 81.8, 50.4), (75.5, 67.9, 51.4), (82.2, 83.7, 69.2)],
}
#: The one cell where Loom is not the best of the three: with two
#: partitions and a breadth-first stream LDG's single boundary is hard to
#: beat.  At scale 1.0 this cell is level (44.53 / 52.36 / 44.54) and
#: lubm-100 k = 2 is the one behind (47.3 / 67.4 / 51.8).
LOOM_NOT_BEST = {("provgen", 2)}
#: Fig. 9 (musicbrainz, k = 8), by stream order: Fennel, then Loom at
#: windows 100 / 250 / 500 / 1000 / 2000 / 4000 of a 3 872-edge stream.
FIG9 = {
    "bfs": (64.2, [54.4, 37.6, 27.9, 25.7, 25.7, 25.7]),
    "random": (74.4, [68.2, 56.6, 44.0, 32.8, 32.8, 32.8]),
}
#: Ablation (musicbrainz, random order, k = 8): Loom variant -> ipt % of Hash.
ABLATION = {
    "loom (full)": 44.7,
    "no deferral": 65.7,
    "no rationing (l=1)": 41.3,
    "no support weighting": 44.5,
    "neighbor-aware bids": 42.4,
    "tiny window": 70.0,
    "low match cap": 47.8,
}


def _informed(row):
    return row["ldg"], row["fennel"], row["loom"]


def _table(rows, columns):
    return {name: [_informed(rows[name, col]) for col in columns] for name in IPT_DATASETS}


@pytest.fixture(scope="module")
def fig7():
    rows = experiments.figure7(scale=SCALE, seed=SEED).rows
    return {(row["dataset"], row["order"]): row for row in rows}


@pytest.fixture(scope="module")
def fig8():
    rows = experiments.figure8(scale=SCALE, seed=SEED).rows
    return {(row["dataset"], row["k"]): row for row in rows}


@pytest.fixture(scope="module")
def fig9():
    curves = {}
    for row in experiments.figure9(scale=SCALE, seed=SEED).rows:
        curve = curves.setdefault(row["order"], (row["fennel_vs_hash_%"], []))
        curve[1].append(row["loom_vs_hash_%"])
    return curves


@pytest.fixture(scope="module")
def ablation():
    rows = experiments.ablation(scale=SCALE, seed=SEED).rows
    return {row["variant"]: row["ipt_vs_hash_%"] for row in rows}


@pytest.fixture(scope="module")
def table1():
    return {row["dataset"]: row for row in experiments.table1(scale=SCALE, seed=SEED).rows}


@pytest.mark.parametrize("name", available_datasets())
def test_table1_heterogeneity(table1, name):
    """The generated stand-in realises the paper's label alphabet |LV| exactly."""
    assert table1[name]["labels"] == table1[name]["paper_labels"]


def test_pins(fig7, fig8, fig9, ablation):
    assert _table(fig7, ORDERS) == FIG7
    assert _table(fig8, KS) == FIG8
    assert fig9 == FIG9
    assert ablation == ABLATION
    # A binding embedding cap under-counts ipt; no pinned cell rests on one.
    assert not any(row["capped"] for row in (*fig7.values(), *fig8.values()))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", IPT_DATASETS)
def test_fig7_cell(fig7, name, order):
    """Sec. 5.2: informed partitioners beat Hash, and the workload-aware one
    beats both workload-agnostic ones — in every cell."""
    ldg, fennel, loom = _informed(fig7[name, order])
    assert max(ldg, fennel, loom) < 100.0
    assert loom < min(ldg, fennel)


@pytest.mark.parametrize("name", IPT_DATASETS)
def test_fig7_loom_wins_random_order(fig7, name):
    """Random order is pseudo-adversarial for one-shot heuristics (LDG and
    Fennel collapse into one rule there); Loom's window restores locality,
    so it wins by a wide margin, not just strictly (7.9–33.6 points)."""
    _, fennel, loom = _informed(fig7[name, "random"])
    assert loom < fennel - 5.0


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", IPT_DATASETS)
def test_fig8_cell(fig8, name, k):
    """The relative standings stay largely consistent across k."""
    ldg, fennel, loom = _informed(fig8[name, k])
    assert max(ldg, fennel, loom) < 105.0
    if (name, k) not in LOOM_NOT_BEST:
        assert loom < min(ldg, fennel)


@pytest.mark.parametrize("name", IPT_DATASETS)
def test_fig8_absolute_ipt_grows_with_k(fig8, name):
    """More partitions => more boundaries => more absolute ipt (Sec. 5.2)."""
    by_k = [fig8[name, k]["loom_ipt"] for k in KS]
    assert by_k[0] < by_k[1] < by_k[2]


@pytest.mark.parametrize("order", FIG9)
def test_fig9_window_curve(fig9, order):
    """ipt falls as the window grows, then flattens; Loom is below Fennel at
    every size, down to a window of 2.6 % of the stream."""
    fennel, loom = fig9[order]
    assert all(later <= earlier for earlier, later in zip(loom, loom[1:]))
    assert loom[-1] < loom[0]
    assert max(loom) < fennel


@pytest.mark.parametrize("variant", ABLATION)
def test_ablation_variant_beats_hash(ablation, variant):
    assert ablation[variant] < 100.0


@pytest.mark.parametrize("variant", ["no deferral", "tiny window"])
def test_ablation_mechanism_matters(ablation, variant):
    """The window is the mechanism, and a non-motif edge pinning motif-label
    vertices pre-empts it: without either, ipt is worse."""
    assert ablation["loom (full)"] < ablation[variant]


def test_table2_cost_ordering():
    """Hash is fastest and Loom costs a bounded factor of LDG (the paper's
    own factor is 2–7×).  The one wall-clock claim: each system's fastest
    of three passes, so a loaded runner cannot flip Hash's 2× margin."""
    passes = [
        experiments.table2(sizes={"provgen": 1_000}, num_edges=3_000, seed=SEED).rows[0]
        for _ in range(3)
    ]
    ms = {s: min(row[f"{s}_ms"] for row in passes) for s in ("hash", "ldg", "fennel", "loom")}
    assert ms["hash"] == min(ms.values())
    assert ms["ldg"] <= ms["loom"] < 60 * ms["ldg"]
