"""Backtracking sub-graph isomorphism for pattern-matching queries.

Implements the query semantics of paper Sec. 1.3: a match of pattern ``q``
in graph ``G`` is an injective mapping of pattern vertices to graph vertices
that preserves labels and maps every pattern edge to a graph edge.  Matches
are *edge* sub-graphs, not induced sub-graphs — extra edges among matched
vertices are permitted, mirroring how a GDBMS answers these queries by
traversal.

The search is a standard connected backtracking with two pruning rules:

* a search plan orders pattern vertices so every vertex after the first is
  adjacent to an already-mapped one (candidates come from neighbourhoods,
  never from the whole graph),
* the first vertex is the one whose label is rarest in the data graph.

Enumeration is deterministic (insertion-rank candidate order) so experiments are
reproducible, and a ``limit`` caps runaway patterns identically across
partitioners (the embedding set does not depend on the partitioning).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.graph.labelled_graph import Edge, LabelledGraph, Vertex, normalize_edge
from repro.query.pattern import PatternGraph

Embedding = Dict[Vertex, Vertex]


def search_plan(
    pattern: PatternGraph,
    graph: LabelledGraph,
    label_counts: Optional[Dict[str, int]] = None,
) -> List[Tuple[Vertex, List[Vertex]]]:
    """Order pattern vertices for the backtracking search.

    Returns ``[(pattern_vertex, mapped_pattern_neighbours), …]`` where the
    neighbour list names the *earlier* plan vertices adjacent to this one.
    The first entry has no neighbours; every later entry has at least one
    (patterns are connected).

    Public because the serving engine compiles the *same* plan over its
    partition stores: identical plans are what make serving-measured hops
    bit-match the executor's ``cut_traversals``.  ``label_counts`` lets a
    caller that already tracks the graph's label histogram (the serving
    engine maintains it incrementally across ingest batches) skip the
    full-vertex scan; when supplied it must equal the scan's result.
    """
    if label_counts is None:
        label_counts = graph.label_counts()

    # Pattern vertices in declaration order; the rank map is the hash-free,
    # repr-free tie-breaker everywhere below.
    vertices = list(pattern.vertices())
    prank = {v: i for i, v in enumerate(vertices)}
    # Start from the vertex with the rarest label in the data graph; break
    # ties toward higher pattern degree (more constraints sooner).
    start = min(
        vertices,
        key=lambda v: (label_counts.get(pattern.label(v), 0), -pattern.degree(v), prank[v]),
    )
    ordered: List[Vertex] = [start]
    placed = {start}
    plan: List[Tuple[Vertex, List[Vertex]]] = [(start, [])]
    while len(ordered) < pattern.num_vertices:
        # Greedy: next vertex with the most already-placed neighbours.
        best: Optional[Vertex] = None
        best_key: Optional[Tuple[int, int, int]] = None
        for v in vertices:
            if v in placed:
                continue
            back = sum(1 for w in pattern.neighbors(v) if w in placed)
            if back == 0:
                continue
            key = (-back, label_counts.get(pattern.label(v), 0), prank[v])
            if best_key is None or key < best_key:
                best, best_key = v, key
        if best is None:  # pragma: no cover - impossible for connected patterns
            raise ValueError(f"pattern {pattern.name!r} is not connected")
        placed.add(best)
        ordered.append(best)
        plan.append((best, [w for w in pattern.neighbors(best) if w in placed and w != best]))
    return plan


def find_embeddings(
    graph: LabelledGraph,
    pattern: PatternGraph,
    limit: Optional[int] = None,
) -> Iterator[Embedding]:
    """Yield injective, label-preserving embeddings of ``pattern`` in ``graph``.

    Embeddings are yielded in a deterministic order; at most ``limit`` are
    produced when given.  Distinct automorphic images count separately (all
    partitioners are compared on the identical embedding multiset, so this
    scales every system equally).
    """
    pattern.validate()
    if graph.num_vertices == 0:
        return
    plan = search_plan(pattern, graph)
    # Data vertices enumerate in insertion (arrival) order — deterministic
    # for a given stream, independent of the hash seed and of vertex reprs.
    grank = {v: i for i, v in enumerate(graph.vertices())}
    mapping: Embedding = {}
    used: set = set()
    produced = 0

    def backtrack(depth: int) -> Iterator[Embedding]:
        nonlocal produced
        if limit is not None and produced >= limit:
            return
        if depth == len(plan):
            produced += 1
            yield dict(mapping)
            return
        pv, anchors = plan[depth]
        want = pattern.label(pv)
        if not anchors:
            candidates: Sequence[Vertex] = [
                v for v in graph.vertices() if graph.label(v) == want
            ]
        else:
            # Candidates adjacent to the first anchor; remaining anchors
            # are checked below.
            first = mapping[anchors[0]]
            candidates = sorted(graph.neighbors(first), key=grank.__getitem__)
        for gv in candidates:
            if gv in used or graph.label(gv) != want:
                continue
            if any(not graph.has_edge(gv, mapping[a]) for a in anchors):
                continue
            mapping[pv] = gv
            used.add(gv)
            yield from backtrack(depth + 1)
            used.discard(gv)
            del mapping[pv]
            if limit is not None and produced >= limit:
                return

    yield from backtrack(0)


def count_embeddings(
    graph: LabelledGraph,
    pattern: PatternGraph,
    limit: Optional[int] = None,
) -> int:
    """The number of embeddings (possibly capped at ``limit``)."""
    return sum(1 for _ in find_embeddings(graph, pattern, limit))


def embedding_edges(pattern: PatternGraph, embedding: Embedding) -> List[Edge]:
    """The data-graph edges an embedding traverses, in normalised form."""
    return [
        normalize_edge(embedding[u], embedding[v])
        for u, v in pattern.edges()
    ]


def is_valid_embedding(
    graph: LabelledGraph,
    pattern: PatternGraph,
    embedding: Embedding,
) -> bool:
    """Check the three conditions of Sec. 1.3 (used by property tests)."""
    if set(embedding) != set(pattern.vertices()):
        return False
    if len(set(embedding.values())) != len(embedding):
        return False  # not injective
    for pv, gv in embedding.items():
        if not graph.has_vertex(gv) or graph.label(gv) != pattern.label(pv):
            return False
    return all(graph.has_edge(embedding[u], embedding[v]) for u, v in pattern.edges())
