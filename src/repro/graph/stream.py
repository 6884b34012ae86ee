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

Every run orders its stream before the first edge reaches a partitioner,
so the orderings are written for speed without moving one event: their
seeded shuffles go through :func:`_shuffle`, which repeats
``random.Random.shuffle`` draw for draw without its per-element method
call; they look labels up in one bound dict; and :class:`EdgeEvent`'s
constructor stores through its slot descriptors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, List

from repro.graph.labelled_graph import Edge, LabelledGraph, Vertex, normalize_edge


@dataclass(frozen=True, slots=True, init=False)
class EdgeEvent:
    """One element of a graph stream: an undirected labelled edge addition.
    Slotted, no ``__dict__``: a stream is held as one event per edge.

    Frozen, but ``__init__`` stores through the slot descriptors rather
    than the generated ``object.__setattr__`` calls, which look each
    attribute up by name; that takes about a third off building an event.
    Equality, hash, repr, pickling and ``dataclasses.replace`` are the
    generated ones."""

    u: Vertex
    u_label: str
    v: Vertex
    v_label: str

    def __init__(self, u: Vertex, u_label: str, v: Vertex, v_label: str) -> None:
        _set_u(self, u)
        _set_u_label(self, u_label)
        _set_v(self, v)
        _set_v_label(self, v_label)

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


_set_u = EdgeEvent.u.__set__
_set_u_label = EdgeEvent.u_label.__set__
_set_v = EdgeEvent.v.__set__
_set_v_label = EdgeEvent.v_label.__set__


class StreamOrder(str, Enum):
    """The three stream orderings of the paper's evaluation (Sec. 5.1)."""

    BREADTH_FIRST = "bfs"
    DEPTH_FIRST = "dfs"
    RANDOM = "random"


def _shuffle(x: list, getrandbits: Callable[[int], int]) -> None:
    """Shuffle ``x`` in place exactly as ``random.Random.shuffle`` does,
    given that generator's bound ``getrandbits``: the same draws in the
    same order, so the same permutation and the same generator state
    after.  For ``i`` from the end down to 1 it swaps ``x[i]`` with
    ``x[j]``, ``j`` drawn uniformly below ``i + 1`` by rejection from
    ``(i + 1).bit_length()`` random bits — ``Random._randbelow``'s rule,
    inlined to save a method call per element."""
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


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


def _ordered_roots(graph: LabelledGraph, getrandbits: Callable[[int], int]) -> List[Vertex]:
    """Deterministic component roots: one shuffled list of all vertices.

    The search starts a new traversal from the next unvisited vertex, which
    covers every connected component exactly once.  Vertices enumerate in
    insertion order (deterministic), so the shuffle is reproducible.
    """
    roots = list(graph.vertices())
    _shuffle(roots, getrandbits)
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
    getrandbits = random.Random(seed).getrandbits
    rank = _insertion_index(graph).__getitem__
    neighbors = graph.neighbors
    labels = graph.labels()
    done = set()
    visited = set()
    for root in _ordered_roots(graph, getrandbits):
        if root in visited:
            continue
        visited.add(root)
        queue: List[Vertex] = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            done.add(u)
            u_label = labels[u]
            nbrs = sorted(neighbors(u), key=rank)
            _shuffle(nbrs, getrandbits)
            for v in nbrs:
                if v not in done:
                    yield EdgeEvent(u, u_label, v, labels[v])
                if v not in visited:
                    visited.add(v)
                    queue.append(v)


def dfs_stream(graph: LabelledGraph, seed: int = 0) -> Iterator[EdgeEvent]:
    """Emit every edge once, in (iterative) depth-first discovery order.

    Each vertex is pushed once and emits all its edges when popped, so —
    as in :func:`bfs_stream` — an edge was already emitted iff its other
    endpoint was popped earlier.
    """
    getrandbits = random.Random(seed).getrandbits
    rank = _insertion_index(graph).__getitem__
    neighbors = graph.neighbors
    labels = graph.labels()
    done = set()
    visited = set()
    for root in _ordered_roots(graph, getrandbits):
        if root in visited:
            continue
        visited.add(root)
        stack: List[Vertex] = [root]
        while stack:
            u = stack.pop()
            done.add(u)
            u_label = labels[u]
            nbrs = sorted(neighbors(u), key=rank)
            _shuffle(nbrs, getrandbits)
            for v in nbrs:
                if v not in done:
                    yield EdgeEvent(u, u_label, v, labels[v])
                if v not in visited:
                    visited.add(v)
                    stack.append(v)


def random_stream(graph: LabelledGraph, seed: int = 0) -> Iterator[EdgeEvent]:
    """Emit every edge once, in a seeded random permutation.

    Edges are canonicalised to (lower insertion rank, higher insertion
    rank) orientation before the shuffle, so both the permutation and the
    emitted endpoint order are reproducible for any vertex type.
    """
    index = _insertion_index(graph)
    labels = graph.labels()
    edges: List[tuple] = []
    for iu, u in enumerate(graph.vertices()):
        for v in graph.neighbors(u):
            iv = index[v]
            if iu < iv:
                edges.append((iu, iv, u, v))
    edges.sort()  # (iu, iv) is unique per edge: the endpoints never compare
    _shuffle(edges, random.Random(seed).getrandbits)
    for _, _, u, v in edges:
        yield EdgeEvent(u, labels[u], v, labels[v])


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
