"""One entry point per table/figure of the paper's evaluation.

Every function returns an :class:`ExperimentResult` whose rows can be
printed with :func:`repro.bench.reporting.render_table` (that is exactly
what ``python -m repro.bench <name>`` does); ``tests/test_paper_claims.py``
asserts the paper's claims on the rows and pins their values.

Scales: the paper partitions multi-million-edge graphs; these experiments
regenerate each dataset at laptop scale (Table 1 records both generated and
paper sizes) and keep Loom's window the same *fraction* of the stream.
Absolute ipt counts therefore differ from the paper; the reproduction
targets are the relative results — who wins, by roughly what factor, and
how the curves bend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import compare_systems, run_system, scaled_window
from repro.bench.reporting import render_table
from repro.core import collision
from repro.datasets.registry import IPT_DATASETS, load_dataset
from repro.graph.stream import stream_edges, stream_prefix
from repro.partitioning import registry
from repro.query.executor import WorkloadExecutor

#: Table 2's presentation order (Hash last, as the paper prints it).
THROUGHPUT_SYSTEMS = ("ldg", "fennel", "loom", "hash")

#: Default generation sizes for the ipt experiments (vertices).  Chosen so
#: each stream has thousands of edges but a full figure regenerates in
#: minutes on a laptop.
DEFAULT_SIZES: Dict[str, int] = {
    "dblp": 2_400,
    "provgen": 2_000,
    "musicbrainz": 3_200,
    "lubm-100": 2_800,
}

#: Larger sizes for the throughput experiment (Table 2) so that every
#: stream carries >= 10k edges, the unit the paper reports.
THROUGHPUT_SIZES: Dict[str, int] = {
    "dblp": 6_000,
    "provgen": 7_000,
    "musicbrainz": 6_400,
    "lubm-100": 4_000,
    "lubm-4000": 14_400,
}

TABLE2_EDGES = 10_000


@dataclass
class ExperimentResult:
    """Rows plus presentation metadata for one table/figure."""

    name: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def render(self) -> str:
        out = render_table(self.rows, title=self.title)
        if self.notes:
            out += f"\n\n{self.notes}"
        return out


def _scaled(sizes: Optional[Dict[str, int]], scale: float) -> Dict[str, int]:
    base = dict(DEFAULT_SIZES if sizes is None else sizes)
    if scale != 1.0:
        base = {k: max(300, int(v * scale)) for k, v in base.items()}
    return base


# ----------------------------------------------------------------------
# Table 1 — datasets
# ----------------------------------------------------------------------
def table1(sizes: Optional[Dict[str, int]] = None, seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    """Table 1: dataset sizes and heterogeneity, generated vs paper."""
    sizes = _scaled({**DEFAULT_SIZES, "lubm-4000": THROUGHPUT_SIZES["lubm-4000"]} if sizes is None else sizes, scale)
    result = ExperimentResult(
        name="table1",
        title="Table 1: graph datasets (generated stand-ins vs paper originals)",
        notes=(
            "Generated graphs preserve the paper's label heterogeneity |LV| exactly "
            "and its |E|/|V| density approximately; sizes are scaled to laptop scale."
        ),
    )
    for name, n in sizes.items():
        ds = load_dataset(name, n, seed)
        row = ds.stats_row()
        row["edges_per_vertex"] = round(ds.graph.num_edges / max(1, ds.graph.num_vertices), 2)
        result.rows.append(row)
    return result


# ----------------------------------------------------------------------
# Figure 4 — signature collision probabilities
# ----------------------------------------------------------------------
def figure4(max_p: int = collision.PAPER_MAX_P, sample_every: int = 4) -> ExperimentResult:
    """Fig. 4: P(<= 5/10/20% factor collisions) vs prime p, 24/36/48 factors."""
    result = ExperimentResult(
        name="figure4",
        title="Figure 4: probability of acceptable factor-collision rates",
        notes=(
            "Computed exactly from Binomial(3|E|, 2/p) as in Sec. 2.3. "
            f"Loom's default prime 251 gives acceptance {collision.acceptance_probability(48, 251, 0.05):.4f} "
            "even for 16-edge query graphs at the strictest (5%) tolerance."
        ),
    )
    primes = collision.primes_up_to(max_p)
    shown = primes[::sample_every] + ([primes[-1]] if primes[-1] not in primes[::sample_every] else [])
    for p in shown:
        row: Dict[str, object] = {"p": p}
        for tol in collision.PAPER_TOLERANCES:
            for nf in collision.PAPER_FACTOR_COUNTS:
                row[f"tol{int(tol * 100)}%/{nf}f"] = round(
                    collision.acceptance_probability(nf, p, tol), 4
                )
        result.rows.append(row)
    return result


# ----------------------------------------------------------------------
# Figures 7 & 8 — relative ipt comparisons
# ----------------------------------------------------------------------
def figure7(
    sizes: Optional[Dict[str, int]] = None,
    k: int = 8,
    seed: int = 0,
    scale: float = 1.0,
    orders: Sequence[str] = ("random", "bfs", "dfs"),
    datasets: Sequence[str] = IPT_DATASETS,
) -> ExperimentResult:
    """Fig. 7: ipt relative to Hash, 8-way, three stream orders."""
    sizes = _scaled(sizes, scale)
    result = ExperimentResult(
        name="figure7",
        title=f"Figure 7: ipt % vs Hash, k={k}, by stream order",
        notes="Lower is better; Hash = 100%. One sub-table row per (order, dataset).",
    )
    for name in datasets:
        ds = load_dataset(name, sizes.get(name), seed)
        executor = WorkloadExecutor(ds.graph, ds.workload)
        for order in orders:
            comparison = compare_systems(ds, order, k, seed=seed, executor=executor)
            result.rows.append(comparison.row())
    return result


def figure8(
    sizes: Optional[Dict[str, int]] = None,
    ks: Sequence[int] = (2, 8, 32),
    seed: int = 0,
    scale: float = 1.0,
    order: str = "bfs",
    datasets: Sequence[str] = IPT_DATASETS,
) -> ExperimentResult:
    """Fig. 8: ipt relative to Hash for k in {2, 8, 32}, breadth-first.

    ``loom_ipt`` is Loom's absolute weighted ipt: it grows with k for every
    system (Sec. 5.2), which the relative columns cannot show.
    """
    sizes = _scaled(sizes, scale)
    result = ExperimentResult(
        name="figure8",
        title=f"Figure 8: ipt % vs Hash on {order} streams, by k",
        notes="Lower is better; Hash = 100%. One row per (k, dataset).",
    )
    for name in datasets:
        ds = load_dataset(name, sizes.get(name), seed)
        executor = WorkloadExecutor(ds.graph, ds.workload)
        for k in ks:
            comparison = compare_systems(ds, order, k, seed=seed, executor=executor)
            row = comparison.row()
            row["loom_ipt"] = round(comparison.runs["loom"].report.weighted_ipt, 1)
            result.rows.append(row)
    return result


# ----------------------------------------------------------------------
# Table 2 — partitioning throughput
# ----------------------------------------------------------------------
def table2(
    sizes: Optional[Dict[str, int]] = None,
    k: int = 8,
    seed: int = 0,
    scale: float = 1.0,
    num_edges: int = TABLE2_EDGES,
    systems: Sequence[str] = THROUGHPUT_SYSTEMS,
) -> ExperimentResult:
    """Table 2: milliseconds to partition 10k edges, per system and dataset."""
    for system in systems:
        if not registry.is_registered(system):
            raise ValueError(f"unknown system {system!r}; registered: {registry.available()}")
    sizes = _scaled(THROUGHPUT_SIZES if sizes is None else sizes, scale)
    result = ExperimentResult(
        name="table2",
        title=f"Table 2: time (ms) to partition {num_edges:,} edges, k={k}",
        notes=(
            "Pure-Python prototype timings; the reproduction target is the ordering "
            "(Hash fastest, LDG ~ Fennel, Loom a small factor slower), not the paper's "
            "absolute milliseconds."
        ),
    )
    for name, n in sizes.items():
        ds = load_dataset(name, n, seed)
        events = stream_prefix(stream_edges(ds.graph, "bfs", seed=seed), num_edges)
        window = scaled_window(ds.graph)
        row: Dict[str, object] = {"dataset": name, "stream_edges": len(events)}
        for system in systems:
            run = run_system(
                system, ds.graph, ds.workload, events, k,
                window_size=window, seed=seed, executor=None,
            )
            scale_factor = num_edges / max(1, len(events))
            row[f"{system}_ms"] = round(run.seconds * 1000.0 * scale_factor, 1)
        result.rows.append(row)
    return result


# ----------------------------------------------------------------------
# Figure 9 — window-size sensitivity
# ----------------------------------------------------------------------
def figure9(
    dataset: str = "musicbrainz",
    num_vertices: Optional[int] = None,
    window_sizes: Sequence[int] = (100, 250, 500, 1000, 2000, 4000),
    k: int = 8,
    seed: int = 0,
    scale: float = 1.0,
    orders: Sequence[str] = ("bfs", "random"),
) -> ExperimentResult:
    """Fig. 9: Loom's ipt as a function of its window size t."""
    n = num_vertices if num_vertices is not None else DEFAULT_SIZES.get(dataset, 3_200)
    n = max(300, int(n * scale))
    ds = load_dataset(dataset, n, seed)
    executor = WorkloadExecutor(ds.graph, ds.workload)
    result = ExperimentResult(
        name="figure9",
        title=f"Figure 9: Loom ipt vs window size t ({dataset}, k={k})",
        notes=(
            "Weighted ipt (frequency-weighted cut traversals) for Loom at several "
            "window sizes, with Fennel and Hash on the same stream for reference. "
            "Larger windows help most on random (pseudo-adversarial) orders."
        ),
    )
    for order in orders:
        events = list(stream_edges(ds.graph, order, seed=seed))
        hash_run = run_system("hash", ds.graph, ds.workload, events, k, seed=seed, executor=executor)
        fennel_run = run_system("fennel", ds.graph, ds.workload, events, k, seed=seed, executor=executor)
        for t in window_sizes:
            run = run_system(
                "loom", ds.graph, ds.workload, events, k,
                window_size=t, seed=seed, executor=executor,
            )
            result.rows.append(
                {
                    "order": order,
                    "window": t,
                    "loom_ipt": round(run.report.weighted_ipt, 1),
                    "loom_vs_hash_%": round(run.report.relative_to(hash_run.report), 1),
                    "fennel_vs_hash_%": round(fennel_run.report.relative_to(hash_run.report), 1),
                }
            )
    return result


# ----------------------------------------------------------------------
# Ablations — design choices (ARCHITECTURE.md "The deferral queue")
# ----------------------------------------------------------------------
def ablation(
    dataset: str = "musicbrainz",
    num_vertices: Optional[int] = None,
    k: int = 8,
    seed: int = 0,
    scale: float = 1.0,
    order: str = "random",
) -> ExperimentResult:
    """Loom design-choice ablations: deferral, rationing, support weighting, bids."""
    n = num_vertices if num_vertices is not None else DEFAULT_SIZES.get(dataset, 3_200)
    n = max(300, int(n * scale))
    ds = load_dataset(dataset, n, seed)
    executor = WorkloadExecutor(ds.graph, ds.workload)
    events = list(stream_edges(ds.graph, order, seed=seed))
    window = scaled_window(ds.graph)
    hash_run = run_system("hash", ds.graph, ds.workload, events, k, seed=seed, executor=executor)

    variants: Dict[str, Dict] = {
        "loom (full)": {},
        "no deferral": {"defer_motif_vertices": False},
        "no rationing (l=1)": {"rationing_enabled": False},
        "no support weighting": {"support_weighting": False},
        "neighbor-aware bids": {"neighbor_aware_bids": True},
        "tiny window": {},  # window handled below
        "low match cap": {"max_matches_per_vertex": 4},
    }
    result = ExperimentResult(
        name="ablation",
        title=f"Ablation: Loom variants on {dataset} ({order} order, k={k})",
        notes="ipt % vs Hash on the identical stream; lower is better.",
    )
    for label, kwargs in variants.items():
        t = max(50, window // 10) if label == "tiny window" else window
        run = run_system(
            "loom", ds.graph, ds.workload, events, k,
            window_size=t, seed=seed, executor=executor, loom_kwargs=kwargs,
        )
        result.rows.append(
            {
                "variant": label,
                "window": t,
                "ipt_vs_hash_%": round(run.report.relative_to(hash_run.report), 1),
                "imbalance": round(run.quality["imbalance"], 3),
            }
        )
    return result


# ----------------------------------------------------------------------
# Stability — seed sensitivity of the Figs. 7/8 comparisons (our addition)
# ----------------------------------------------------------------------
def stability(
    datasets: Sequence[str] = ("provgen", "musicbrainz"),
    sizes: Optional[Dict[str, int]] = None,
    seeds: Optional[Sequence[int]] = None,
    k: int = 8,
    order: str = "random",
    scale: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    """Mean ± spread of relative ipt across generation/stream seeds.

    Laptop-scale graphs make individual Figs. 7/8 cells noisy; this
    experiment quantifies that noise so their comparisons can be read with
    error bars.  The sweep is ``seed, seed + 1, seed + 2`` unless ``seeds``
    names it.
    """
    sizes = _scaled(sizes, scale)
    if seeds is None:
        seeds = (seed, seed + 1, seed + 2)
    result = ExperimentResult(
        name="stability",
        title=f"Seed stability: ipt % vs Hash over seeds {tuple(seeds)} ({order}, k={k})",
        notes="mean (min-max) of each system's relative ipt across seeds.",
    )
    for name in datasets:
        samples: Dict[str, List[float]] = {"ldg": [], "fennel": [], "loom": []}
        for s in seeds:
            ds = load_dataset(name, sizes.get(name), s)
            comparison = compare_systems(ds, order, k, seed=s)
            for system in samples:
                samples[system].append(comparison.relative_ipt(system))
        row: Dict[str, object] = {"dataset": name, "seeds": len(list(seeds))}
        for system, values in samples.items():
            mean = sum(values) / len(values)
            row[system] = f"{mean:.1f} ({min(values):.1f}-{max(values):.1f})"
        result.rows.append(row)
    return result


EXPERIMENTS = {
    "table1": table1,
    "figure4": figure4,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "table2": table2,
    "ablation": ablation,
    "stability": stability,
}
