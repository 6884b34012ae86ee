"""Graph streams and stream orderings.

The paper treats an *online graph* as a (possibly infinite) sequence of edge
additions (Sec. 1.3) and evaluates partitioners over three orderings of a
static graph's edges (Sec. 5.1):

* **breadth-first** — edges emitted as a BFS visits each connected component,
* **depth-first** — likewise with a DFS,
* **random** — a seeded permutation of the edges ("pseudo-adversarial").

Each stream element is an :class:`EdgeEvent` carrying both endpoints *and*
their labels, because a streaming partitioner sees vertices for the first
time when an incident edge arrives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, List

from repro.graph.labelled_graph import Edge, LabelledGraph, Vertex, normalize_edge


@dataclass(frozen=True, slots=True)
class EdgeEvent:
    """One element of a graph stream: an undirected labelled edge addition.
    Slotted, no ``__dict__``: a stream is held as one event per edge."""

    u: Vertex
    u_label: str
    v: Vertex
    v_label: str

    @property
    def edge(self) -> Edge:
        return normalize_edge(self.u, self.v)

    def endpoints(self):
        return (self.u, self.v)

    def label_of(self, vertex: Vertex) -> str:
        if vertex == self.u:
            return self.u_label
        if vertex == self.v:
            return self.v_label
        raise KeyError(f"{vertex!r} is not an endpoint of {self!r}")

    def label_pair(self):
        """The unordered label pair, sorted (used for single-edge signatures)."""
        return tuple(sorted((self.u_label, self.v_label)))


class StreamOrder(str, Enum):
    """The three stream orderings of the paper's evaluation (Sec. 5.1)."""

    BREADTH_FIRST = "bfs"
    DEPTH_FIRST = "dfs"
    RANDOM = "random"


def _event(graph: LabelledGraph, u: Vertex, v: Vertex) -> EdgeEvent:
    return EdgeEvent(u, graph.label(u), v, graph.label(v))


def _insertion_index(graph: LabelledGraph) -> dict:
    """Vertex → first-insertion rank, the canonical pre-shuffle order.

    Every ordering below canonicalises hash-ordered collections (neighbour
    sets, edge iterators) before the seeded shuffle.  Sorting by this
    integer rank — instead of the historical ``repr()`` strings — makes the
    canonical order independent of ``PYTHONHASHSEED`` *and* of whether
    vertices define a value-based ``__repr__``; default object reprs embed
    memory addresses, which silently reordered streams between runs.
    """
    return {v: i for i, v in enumerate(graph.vertices())}


def _ordered_roots(graph: LabelledGraph, rng: random.Random) -> List[Vertex]:
    """Deterministic component roots: one shuffled list of all vertices.

    The search starts a new traversal from the next unvisited vertex, which
    covers every connected component exactly once.  Vertices enumerate in
    insertion order (deterministic), so the shuffle is reproducible.
    """
    roots = list(graph.vertices())
    rng.shuffle(roots)
    return roots


def bfs_stream(graph: LabelledGraph, seed: int = 0) -> Iterator[EdgeEvent]:
    """Emit every edge once, in breadth-first discovery order.

    When a vertex is dequeued, all of its not-yet-emitted incident edges are
    emitted (tree edges *and* cross edges), so neighbouring edges appear
    close together in the stream — the locality that makes BFS order
    friendly to streaming partitioners (Sec. 5.3).

    Every vertex is enqueued once and all its edges leave when it is
    dequeued, so an edge was already emitted iff its other endpoint was
    dequeued earlier: a ``done`` vertex set answers that without building
    or hashing an edge key.
    """
    rng = random.Random(seed)
    index = _insertion_index(graph)
    rank = index.__getitem__
    label = graph.label
    done = set()
    visited = set()
    for root in _ordered_roots(graph, rng):
        if root in visited:
            continue
        visited.add(root)
        queue: List[Vertex] = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            done.add(u)
            u_label = label(u)
            nbrs = sorted(graph.neighbors(u), key=rank)
            rng.shuffle(nbrs)
            for v in nbrs:
                if v not in done:
                    yield EdgeEvent(u, u_label, v, label(v))
                if v not in visited:
                    visited.add(v)
                    queue.append(v)


def dfs_stream(graph: LabelledGraph, seed: int = 0) -> Iterator[EdgeEvent]:
    """Emit every edge once, in (iterative) depth-first discovery order.

    Each vertex is pushed once and emits all its edges when popped, so —
    as in :func:`bfs_stream` — an edge was already emitted iff its other
    endpoint was popped earlier.
    """
    rng = random.Random(seed)
    index = _insertion_index(graph)
    rank = index.__getitem__
    label = graph.label
    done = set()
    visited = set()
    for root in _ordered_roots(graph, rng):
        if root in visited:
            continue
        visited.add(root)
        stack: List[Vertex] = [root]
        while stack:
            u = stack.pop()
            done.add(u)
            u_label = label(u)
            nbrs = sorted(graph.neighbors(u), key=rank)
            rng.shuffle(nbrs)
            for v in nbrs:
                if v not in done:
                    yield EdgeEvent(u, u_label, v, label(v))
                if v not in visited:
                    visited.add(v)
                    stack.append(v)


def random_stream(graph: LabelledGraph, seed: int = 0) -> Iterator[EdgeEvent]:
    """Emit every edge once, in a seeded random permutation.

    Edges are canonicalised to (lower insertion rank, higher insertion
    rank) orientation before the shuffle, so both the permutation and the
    emitted endpoint order are reproducible for any vertex type.
    """
    rng = random.Random(seed)
    index = _insertion_index(graph)
    edges: List[tuple] = []
    for u in graph.vertices():
        iu = index[u]
        for v in graph.neighbors(u):
            if iu < index[v]:
                edges.append((iu, index[v], u, v))
    edges.sort(key=lambda e: (e[0], e[1]))
    rng.shuffle(edges)
    for _, _, u, v in edges:
        yield _event(graph, u, v)


_ORDERINGS = {
    StreamOrder.BREADTH_FIRST: bfs_stream,
    StreamOrder.DEPTH_FIRST: dfs_stream,
    StreamOrder.RANDOM: random_stream,
}


def stream_edges(
    graph: LabelledGraph,
    order: StreamOrder | str = StreamOrder.BREADTH_FIRST,
    seed: int = 0,
) -> Iterator[EdgeEvent]:
    """Stream ``graph``'s edges in the requested :class:`StreamOrder`."""
    order = StreamOrder(order)
    return _ORDERINGS[order](graph, seed)


def stream_to_graph(events: Iterable[EdgeEvent], name: str = "") -> LabelledGraph:
    """Materialise a stream back into a :class:`LabelledGraph`."""
    g = LabelledGraph(name)
    for ev in events:
        g.add_edge(ev.u, ev.v, ev.u_label, ev.v_label)
    return g


def batched(events: Iterable[EdgeEvent], batch_size: int) -> Iterator[List[EdgeEvent]]:
    """Chunk a stream into lists of at most ``batch_size`` events, in order.

    The batch boundary is purely an amortisation device — batches preserve
    the stream order exactly, so driving a partitioner batch by batch
    (:meth:`~repro.partitioning.base.StreamingPartitioner.ingest_batch`)
    is equivalent to driving it event by event.  This is the public helper
    for callers driving ``ingest_batch`` by hand (the reference benchmark,
    a live cluster's ingest rounds).  The final batch may be shorter and
    empty streams yield nothing.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    batch: List[EdgeEvent] = []
    append = batch.append
    for ev in events:
        append(ev)
        if len(batch) >= batch_size:
            yield batch
            batch = []
            append = batch.append
    if batch:
        yield batch


def stream_prefix(events: Iterable[EdgeEvent], n: int) -> List[EdgeEvent]:
    """The first ``n`` events of a stream, as a list (used by Table 2)."""
    if n <= 0:
        return []
    out: List[EdgeEvent] = []
    for ev in events:
        out.append(ev)
        if len(out) >= n:
            break
    return out


def synthetic_stream(
    num_vertices: int,
    num_edges: int,
    labels: Iterable[str] = ("a", "b", "c"),
    seed: int = 0,
) -> Iterator[EdgeEvent]:
    """A seeded random edge stream generated on the fly.

    Emits exactly ``num_edges`` distinct undirected edges over
    ``num_vertices`` integer vertices with uniformly random labels — a
    spanning chain first (so every vertex appears), then uniformly random
    extra edges.  Unlike the ``*_stream`` orderings above it never
    materialises a :class:`LabelledGraph`, which is what lets the
    throughput benchmark drive 100k+ edge streams cheaply.
    """
    if num_vertices < 2:
        raise ValueError("num_vertices must be at least 2")
    max_edges = num_vertices * (num_vertices - 1) // 2
    if not num_vertices - 1 <= num_edges <= max_edges:
        raise ValueError(
            f"num_edges must lie in [{num_vertices - 1}, {max_edges}] "
            f"for a connected simple graph on {num_vertices} vertices"
        )
    rng = random.Random(seed)
    label_pool = tuple(labels)
    vertex_labels = [rng.choice(label_pool) for _ in range(num_vertices)]
    emitted = set()
    for v in range(1, num_vertices):
        emitted.add((v - 1, v))
        yield EdgeEvent(v - 1, vertex_labels[v - 1], v, vertex_labels[v])
    count = num_vertices - 1
    while count < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in emitted:
            continue
        emitted.add(e)
        count += 1
        yield EdgeEvent(u, vertex_labels[u], v, vertex_labels[v])
