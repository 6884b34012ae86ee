"""Live-cluster determinism under hash-seed variation.

The live cluster's promise (see the ``repro.runtime.live`` docstring): in
the lock-step pattern — an ingest round barrier, then a serve burst —
double runs produce **bit-identical transcripts**: every answer, hop
count, cache flag, summed cache statistic and hop-message count.  Queue
scheduling may interleave wall-clock progress differently between runs,
but never the content of any reply.

Like ``tests/test_determinism.py`` this is checked the only way that
actually proves it: fresh interpreter runs under different
``PYTHONHASHSEED`` values (which randomise str/tuple hashing and heap
layout), whose shard-server *processes* inherit the varied seed too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

# The live pipeline: ingest through a LiveCluster in lock-step rounds with
# a full serve burst between rounds, printing every answer, hop count and
# the summed shard cache stats.
LIVE_PIPELINE = """
import json, random, sys

from repro.graph.labelled_graph import LabelledGraph
from repro.graph.stream import batched, stream_edges
from repro.partitioning import registry
from repro.partitioning.state import PartitionState
from repro.query.pattern import path_pattern
from repro.query.workload import Workload
from repro.runtime.live import LiveCluster

num_shards = int(sys.argv[1])

LABELS = ["a", "b", "c"]
N, E = 60, 140
rng = random.Random(4)
g = LabelledGraph("live-determinism")
vertices = [f"v{i}" for i in range(N)]
for i, v in enumerate(vertices):
    g.add_vertex(v, LABELS[i % 3])
for i in range(1, N):
    g.add_edge(vertices[i - 1], vertices[i])
added = N - 1
while added < E:
    a, b = rng.randrange(N), rng.randrange(N)
    if a != b and not g.has_edge(vertices[a], vertices[b]):
        g.add_edge(vertices[a], vertices[b])
        added += 1

workload = Workload(
    [
        (path_pattern(["a", "b", "a", "b"], name="abab"), 0.5),
        (path_pattern(["a", "b", "c"], name="abc"), 0.5),
    ],
    name="determinism",
)
events = list(stream_edges(g, "bfs", seed=3))

state = PartitionState.for_graph(4, N)
partitioner = registry.create(
    "loom", state, graph=g, workload=workload, window_size=40, seed=0
)
live_graph = LabelledGraph("live")
transcript = []
with LiveCluster(
    live_graph, state, workload, num_shards=num_shards, cache=True,
    partitioner=partitioner,
) as cluster:
    def burst():
        for name in cluster.query_names():
            for root in cluster.root_candidates(name):
                result = cluster.serve_root(name, root)
                transcript.append(
                    [name, root, result.embeddings, result.hops,
                     result.border_expansions, cluster.last_cached]
                )
    for chunk in batched(events, 37):
        cluster.ingest(chunk)
        burst()
    cluster.finalize()
    burst()
    cache = {"hits": 0, "misses": 0, "entries": 0, "invalidations": 0}
    for shard in cluster.shard_stats():
        for key in cache:
            cache[key] += shard.cache_stats[key]
    hop_messages = cluster.hop_messages_sent

print(json.dumps({
    "transcript": transcript,
    "cache": cache,
    "hop_messages": hop_messages,
}))
"""


def _run_live_pipeline(num_shards: int, hashseed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", LIVE_PIPELINE, str(num_shards)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_live_serving_invariant_under_hashseed(num_shards):
    """Interleaved ingest/serve double-runs in fresh interpreters under
    different hash seeds: every answer, hop count, cache flag, summed
    cache statistic and hop-message count must agree bit for bit."""
    runs = [_run_live_pipeline(num_shards, seed) for seed in (1, 4242)]
    assert runs[0]["transcript"] == runs[1]["transcript"]
    assert runs[0]["cache"] == runs[1]["cache"]
    assert runs[0]["hop_messages"] == runs[1]["hop_messages"]
    assert runs[0]["transcript"], "the burst actually served something"


def test_live_serving_invariant_across_shard_counts():
    """The lock-step transcript is also identical across shard counts —
    the distributed DFS answers exactly what one process would."""
    one = _run_live_pipeline(1, hashseed=7)
    four = _run_live_pipeline(4, hashseed=7)
    assert one["transcript"] == four["transcript"]
    assert one["cache"] == four["cache"]
    assert one["hop_messages"] == 0  # one shard owns every partition
