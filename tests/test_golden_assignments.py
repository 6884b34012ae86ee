"""Golden assignment digests: the placements the live stack must keep.

A partitioner's whole output is its assignment, so each test here pins
one sha256 digest of it — over the sorted ``(repr(vertex), partition)``
list, the form ``tests/test_plan.py`` uses.  A change that moves a single
vertex of any configuration fails here; a change meant to move placements
re-pins the digests it moves and says why.

Two groups:

* **Fixed configurations** on a random labelled graph (300 vertices, 700
  edges, ``K = 4``) and the ``abab`` / ``abc`` workload: LDG, Fennel, Hash
  and Loom, plus the zero-slack capacity that forces auction spills and
  the benchmark's synthetic stream.  The Loom cases run with the deferral
  queue off.  Every digest in this group was pinned while the frozen
  dict-based seed implementation still checked the live stack bit for
  bit, so each is the seed's answer too.
* **The Fig. 7 grid**: Hash, LDG, Fennel and Loom with its defaults —
  deferral on, the placement Loom ships — × the four ipt datasets × three
  stream orders at k = 8, sized and partitioned exactly as
  ``figure7(scale=0.5)`` places them through ``run_system``.

Every digest is independent of ``PYTHONHASHSEED``; CI runs this module
under two seeds.
"""

import functools
import hashlib
import json
import math

import pytest

from repro.bench.experiments import _scaled
from repro.bench.harness import run_system
from repro.core.loom import LoomPartitioner
from repro.datasets.registry import IPT_DATASETS, load_dataset
from repro.graph.stream import stream_edges, synthetic_stream
from repro.partitioning.fennel import FennelPartitioner
from repro.partitioning.hash_partitioner import HashPartitioner
from repro.partitioning.ldg import LDGPartitioner
from repro.partitioning.state import PartitionState
from repro.query.pattern import path_pattern
from repro.query.workload import Workload

from helpers import make_random_labelled_graph

K = 4

FIXED_DIGESTS = {
    "ldg-bfs": "610096fe13c639f2615da2d144aa7dc8e3dc89efc24454fb3e99be131fc33b86",
    "ldg-dfs": "23db15c57a3aa816fb5c810fcbdaeac15cedf7692fb59430b8519e1869aeea7f",
    "ldg-random": "130a3ed88466997ccc07cb2bcec33d4fc7439b123a4491b45ade9aeb7370cab4",
    "fennel-bfs": "61036e25be155830c66f44411ecacb72ad97a0919e38cbee588f01b77040b00f",
    "fennel-random": "130a3ed88466997ccc07cb2bcec33d4fc7439b123a4491b45ade9aeb7370cab4",
    "hash-random": "6c0d9c6bb489fe5b5de91fd356a907976912b1d02cba68ebde26b3bca46ff5a9",
    "loom-bfs-120": "386706b0c036f241362e6872c0587cb5f5d3bcc1d99167ac5267715a5e7e9491",
    "loom-random-200": "37375ddabfb9b9c9defa78da909539df50757e28db3ef935e1ae036e71af040d",
    "loom-tight-bfs": "fcc230efa48d1374c40c43822594d2bc567097d52f4812a65dee94d0d1577ef3",
    "loom-tight-random": "972941f2c6d202914ce47d8de406aa5f60c2ec8187ca6b1e5469bb8608bfc001",
    "ldg-synthetic": "e22d8d4e4d2dee4934d4b17f3e702f2549d61b762c80047c836b89252abff392",
}

FIGURE7_DIGESTS = {
    # dataset -> "system-order" -> digest, k = 8, seed 0.
    "dblp": {
        "hash-random": "9c8d2219bd872b50453cec583e977f51674ba9d2964b7e585c0a9725ec5dbf5c",
        "ldg-random": "dbef1da017692bb588493938bf15c6c1de6d73d9c0dee46cf3a77519bdf24524",
        "fennel-random": "dbef1da017692bb588493938bf15c6c1de6d73d9c0dee46cf3a77519bdf24524",
        "loom-random": "2fbcdc282170a8d1041987be015b2240e089c3dac11363fc28c63a936672564e",
        "hash-bfs": "9c8d2219bd872b50453cec583e977f51674ba9d2964b7e585c0a9725ec5dbf5c",
        "ldg-bfs": "0022f7ef4d05894ad0d5db9b925416edd5b77132c117fd4138c58216d24d9fa8",
        "fennel-bfs": "77687564e4094b608dc4b14701db82e2d1d410c08aa1c7470328ad65b5bca333",
        "loom-bfs": "bb35a39e1b92aaefb8cba54300427e5a6bf8f75ad375e4fb44ce0675e8c6b48c",
        "hash-dfs": "9c8d2219bd872b50453cec583e977f51674ba9d2964b7e585c0a9725ec5dbf5c",
        "ldg-dfs": "4f2e65b5d0779aea36a8055e44a75ace89d00e27245e1dfa9a2e129260f3c7e6",
        "fennel-dfs": "8c46032b0a83bbe54e4e8d2ad91ea2fb08f2d1a64ccd5ad93a01818f30c4d389",
        "loom-dfs": "2025e02074bd484b29f4dbd01e539898a0d3eb5cf45a6f69553cdff86b2f52fa",
    },
    "provgen": {
        "hash-random": "50d0d6b8ae1c33b5f60e190b3fe20e989c02f479058b524030fa73e9801975c6",
        "ldg-random": "80efc518a84791352778e18ef992603895beffa36399fcf29132969a0bfe452c",
        "fennel-random": "80efc518a84791352778e18ef992603895beffa36399fcf29132969a0bfe452c",
        "loom-random": "fbb38fa98fff803e79f434b739ea4097a883c4ccdf030f99f14e8f0bf5e6e670",
        "hash-bfs": "50d0d6b8ae1c33b5f60e190b3fe20e989c02f479058b524030fa73e9801975c6",
        "ldg-bfs": "563ad02aa3bb337300b80e116b0252f17e1634699d1462581a8fbe7c4a8bef81",
        "fennel-bfs": "250f0593a0b37751e58a4fb044d1b48519a4eeec258e73a17362c29e6c3bfe11",
        "loom-bfs": "a7969b054ce6f6872c6d26a406fe8f249635aacbd5d8057472c0780e6380f295",
        "hash-dfs": "50d0d6b8ae1c33b5f60e190b3fe20e989c02f479058b524030fa73e9801975c6",
        "ldg-dfs": "a222e3e386b9b7f4d9f29366f09dddd2685f833a078572f7544d7902f1703b72",
        "fennel-dfs": "8d4435c0326436843203935758985dc0d993f6ef97d458153a372735399d82a2",
        "loom-dfs": "b1a203cc5b9527458cd165e44adedfb605cc92cbde45d375d7cba11c4e66cfcd",
    },
    "musicbrainz": {
        "hash-random": "82a41647228e2443f5675d1c248a69eb3bb53416e6ec60995aa39f6ef2f9a4a6",
        "ldg-random": "357ecd9f544b98662a13a41cd1c494cb47b19610691a84782f7dcc3ac23bb9c7",
        "fennel-random": "357ecd9f544b98662a13a41cd1c494cb47b19610691a84782f7dcc3ac23bb9c7",
        "loom-random": "0b3e7566a55d9c69e9c2e7a6287d7128bd2abec9da34a350922b576ec137859b",
        "hash-bfs": "82a41647228e2443f5675d1c248a69eb3bb53416e6ec60995aa39f6ef2f9a4a6",
        "ldg-bfs": "807abe70f856ce4e95feb18dbff05d780f25c6a48e667a268ff468c4bd87033f",
        "fennel-bfs": "4689625f045e54b326756a382d19b579c1b117a783caa13f5dc542b89b69d771",
        "loom-bfs": "2f45f97ceeea3b82e039b5cd850012987085d327addb4fb4296008656c089590",
        "hash-dfs": "82a41647228e2443f5675d1c248a69eb3bb53416e6ec60995aa39f6ef2f9a4a6",
        "ldg-dfs": "6c883fe2c65ddee8fc9659386c29b49a5141053eed7abddd7827e3f705e58fd1",
        "fennel-dfs": "83b4de7414bb230f1e05a8fb73f84f4688c1fc24318db459b92ed248786248cf",
        "loom-dfs": "54f8fbfbaff061f20a62a1bb03cdd1a971e84dd25a8178b4c62e0d7baa14ed9f",
    },
    "lubm-100": {
        "hash-random": "2b9bd72ab74532d621ec3bbe69ecf56c5d067cef39ff6caa4ca4b4f605331a38",
        "ldg-random": "5ba6256193fcb0dd4b6bbc010136bc3bcb9d27f227c31367fcdd9880de7c3d67",
        "fennel-random": "5ba6256193fcb0dd4b6bbc010136bc3bcb9d27f227c31367fcdd9880de7c3d67",
        "loom-random": "5424fbdfdf297b217a2a0fe5b782825a1892bb058c014dad6268975cc77cc42a",
        "hash-bfs": "2b9bd72ab74532d621ec3bbe69ecf56c5d067cef39ff6caa4ca4b4f605331a38",
        "ldg-bfs": "e32425028540530f6efb2babab0433aa82ffda2b7966642fd254d00ceb1e1abc",
        "fennel-bfs": "e3cb8a3cd45f8cd93e090938c2bdd3079caffdac95355fc940e040128d43f5df",
        "loom-bfs": "5fa745cc467ce16b1864cba29efa92bb66af62001fd75c62b9fa8f2159ea4d2d",
        "hash-dfs": "2b9bd72ab74532d621ec3bbe69ecf56c5d067cef39ff6caa4ca4b4f605331a38",
        "ldg-dfs": "a38edba06a1e34ec2de367cd3cacf6bb9f2dc450321cc5dca73db6279bc62c0a",
        "fennel-dfs": "f83c287a01f8419d6c1180d5b9758f0c4bd748dcdbd4532cdde3c59e3bb7c58a",
        "loom-dfs": "3f21fdc02af6c8ec47eab5e252c429285cb643f480b236e4c16cceec22b6e325",
    },
}


def _digest(assignment) -> str:
    blob = json.dumps(sorted((repr(v), p) for v, p in assignment.items())).encode()
    return hashlib.sha256(blob).hexdigest()


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
        name="golden",
    )


def _state(graph):
    return PartitionState.for_graph(K, graph.num_vertices)


def _events(graph, order, seed=3):
    return list(stream_edges(graph, order, seed=seed))


@pytest.mark.parametrize("order", ["bfs", "dfs", "random"])
def test_ldg_digest(graph, order):
    state = _state(graph)
    LDGPartitioner(state).ingest_all(_events(graph, order))
    assert _digest(state.assignment()) == FIXED_DIGESTS[f"ldg-{order}"]


@pytest.mark.parametrize("order", ["bfs", "random"])
def test_fennel_digest(graph, order):
    state = _state(graph)
    FennelPartitioner(state, graph.num_vertices, graph.num_edges).ingest_all(_events(graph, order))
    assert _digest(state.assignment()) == FIXED_DIGESTS[f"fennel-{order}"]


def test_hash_digest(graph):
    state = _state(graph)
    HashPartitioner(state, seed=7).ingest_all(_events(graph, "random"))
    assert _digest(state.assignment()) == FIXED_DIGESTS["hash-random"]


@pytest.mark.parametrize("order,window", [("bfs", 120), ("random", 200)])
def test_loom_digest(graph, workload, order, window):
    """Matcher + auction + LDG fallback, end to end."""
    state = _state(graph)
    LoomPartitioner(
        state, workload, window_size=window, seed=0, defer_motif_vertices=False
    ).ingest_all(_events(graph, order))
    assert _digest(state.assignment()) == FIXED_DIGESTS[f"loom-{order}-{window}"]


@pytest.mark.parametrize("order", ["bfs", "random"])
def test_loom_tight_capacity_digest(graph, workload, order):
    """Zero-slack capacity forces auctions to fill the winner mid-cluster
    and spill the tail — the path where assignment *order* matters."""
    state = PartitionState(K, math.ceil(graph.num_vertices / K))  # imbalance 1.0
    LoomPartitioner(
        state, workload, window_size=150, seed=0, defer_motif_vertices=False
    ).ingest_all(_events(graph, order))
    assert _digest(state.assignment()) == FIXED_DIGESTS[f"loom-tight-{order}"]


def test_synthetic_stream_digest():
    """The benchmark's stream generator, through LDG at k = 8."""
    events = list(synthetic_stream(500, 1_500, seed=9))
    vertices = {ev.u for ev in events} | {ev.v for ev in events}
    state = PartitionState.for_graph(8, len(vertices))
    LDGPartitioner(state).ingest_all(events)
    assert state.num_assigned == len(vertices)
    assert _digest(state.assignment()) == FIXED_DIGESTS["ldg-synthetic"]


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


FIGURE7_SIZES = _scaled(None, 0.5)  # the dataset sizes figure7(scale=0.5) uses


@functools.cache
def _figure7_dataset(name):
    return load_dataset(name, FIGURE7_SIZES[name], 0)


@functools.cache
def _figure7_events(name, order):
    return list(stream_edges(_figure7_dataset(name).graph, order, seed=0))


@pytest.mark.parametrize("system", ["hash", "ldg", "fennel", "loom"])
@pytest.mark.parametrize("order", ["random", "bfs", "dfs"])
@pytest.mark.parametrize("dataset", IPT_DATASETS)
def test_figure7_digest(dataset, order, system):
    ds = _figure7_dataset(dataset)
    run = run_system(system, ds.graph, ds.workload, _figure7_events(dataset, order), 8, seed=0)
    assert _digest(run.state.assignment()) == FIGURE7_DIGESTS[dataset][f"{system}-{order}"]
