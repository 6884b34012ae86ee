"""Plain importable test helpers.

Test modules import from here (``from helpers import …``) instead of from
``conftest`` — a ``conftest.py`` is pytest plumbing, and importing it by
module name breaks as soon as another ``conftest.py`` (the benchmark
suite's, historically) wins the ``sys.modules['conftest']`` slot.
"""

import random

from repro.datasets import load_dataset
from repro.graph.labelled_graph import LabelledGraph
from repro.graph.stream import stream_edges
from repro.partitioning import registry
from repro.partitioning.state import PartitionState
from repro.query.pattern import path_pattern
from repro.query.workload import Workload


def make_random_labelled_graph(
    num_vertices: int = 60,
    num_edges: int = 120,
    labels=("a", "b", "c"),
    seed: int = 0,
) -> LabelledGraph:
    """A connected-ish random labelled graph for integration tests."""
    rng = random.Random(seed)
    g = LabelledGraph(f"random-{seed}")
    for v in range(num_vertices):
        g.add_vertex(v, rng.choice(labels))
    # Spanning chain first so streams visit everything.
    for v in range(1, num_vertices):
        g.add_edge(v - 1, v)
    added = num_vertices - 1
    while added < num_edges:
        u, v = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
            added += 1
    return g


def random_path_workload(rng: random.Random, alphabet) -> Workload:
    """2–4 path queries of 2–4 labels each, with random integer weights."""
    entries = []
    for i in range(rng.randint(2, 4)):
        labels = [rng.choice(alphabet) for _ in range(rng.randint(2, 4))]
        entries.append((path_pattern(labels, name=f"q{i}"), float(rng.randint(1, 10))))
    return Workload(entries, name="random")


#: The reference benchmark's Loom input (``benchmarks/e2e``): musicbrainz,
#: BFS order, k = 8, window |E| / 8, seed 7, 2048-edge batches.
BENCH_SEED = 7
BENCH_K = 8
BENCH_BATCH_EDGES = 2048


def bench_loom_input(vertices: int = 8_000):
    """``(dataset, events)`` of the benchmark-shaped stream, built through
    ``repro`` alone."""
    dataset = load_dataset("musicbrainz", vertices, seed=BENCH_SEED)
    return dataset, list(stream_edges(dataset.graph, "bfs", seed=BENCH_SEED))


def new_bench_loom(dataset, events):
    """A fresh Loom over a fresh state, configured as the benchmark's."""
    state = PartitionState.for_graph(BENCH_K, dataset.graph.num_vertices)
    return registry.create(
        "loom",
        state,
        graph=dataset.graph,
        workload=dataset.workload,
        window_size=len(events) // 8,
        seed=BENCH_SEED,
    )
