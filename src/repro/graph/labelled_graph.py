"""Undirected, vertex-labelled graphs.

The paper (Sec. 1.3) defines a labelled graph ``G = (V, E, LV, fl)`` with a
surjective mapping ``fl`` from vertices to labels, and considers undirected
simple graphs throughout.  :class:`LabelledGraph` is the in-memory
realisation used by every other subsystem: the streaming partitioners, the
TPSTry++ construction, the stream motif matcher and the query executor.

Vertices are arbitrary hashable identifiers (integers in practice), labels
are short strings.  Edges are unordered pairs, normalised so that
``(u, v) == (v, u)``; see :func:`normalize_edge`.  Adjacency is one list
per vertex, neighbours in first-insertion order: the graph is the
largest per-vertex structure the program holds, and on the benchmark
graphs a list per vertex takes a quarter of the memory a set would.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


def normalize_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical (sorted) form of the undirected edge ``{u, v}``.

    Every module in :mod:`repro` stores and compares edges in this form so
    that ``(2, 1)`` and ``(1, 2)`` denote the same edge.
    """
    # detlint's DET-repr would normally reject this repr ordering, but it is
    # frozen seed semantics: like stable_hash, which hashes a vertex's repr,
    # it ties placements to repr, and the golden assignment digests
    # (tests/test_golden_assignments.py) pin them; value-typed dataset
    # vertices (ints/strings) repr deterministically.  Hot paths compare
    # packed interned ids instead (core/window.py pack_edge), never these
    # tuples.
    return (u, v) if repr(u) <= repr(v) else (v, u)  # detlint: disable=DET-repr (frozen seed semantics)


class LabelledGraph:
    """An undirected simple graph with one label per vertex.

    Each vertex holds one list of its neighbours, each once, in the order
    its edges were first added.  A list costs a 56 B header and 8 B per
    slot (CPython over-allocates in steps of four), where a set costs
    216 B up to four members and 728 B from the fifth.  Neighbour and
    degree lookups are O(1); edge-membership tests (:meth:`has_edge`,
    :meth:`add_edge`'s duplicate check) and :meth:`remove_edge` scan one
    endpoint's list, O(degree) — short on the graphs served here (the
    benchmark graphs' maximum degree is 56).  Readers that need a
    canonical order sort: the stream orders by insertion rank, the cold
    store build and the embedding search by id.

    Parameters
    ----------
    name:
        Optional human-readable name, used by the benchmark reporting.
    """

    __slots__ = ("name", "_adj", "_labels", "_num_edges")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._adj: Dict[Vertex, List[Vertex]] = {}
        self._labels: Dict[Vertex, str] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex, label: str) -> None:
        """Add vertex ``v`` with ``label``.

        Re-adding an existing vertex with the same label is a no-op;
        re-adding with a *different* label raises ``ValueError`` (labels are
        immutable once assigned, as the signature scheme depends on them).
        """
        existing = self._labels.get(v)
        if existing is None:
            self._labels[v] = label
            self._adj[v] = []
        elif existing != label:
            raise ValueError(
                f"vertex {v!r} already has label {existing!r}; cannot relabel to {label!r}"
            )

    def add_edge(self, u: Vertex, v: Vertex, u_label: Optional[str] = None, v_label: Optional[str] = None) -> bool:
        """Add the undirected edge ``{u, v}``.

        Labels may be supplied inline for vertices not yet present (the
        streaming use-case, where an edge event carries endpoint labels).
        Returns ``True`` if the edge was new, ``False`` if it already
        existed.  Self-loops are rejected: the paper's model (and all three
        partitioners) assume simple graphs.
        """
        if u == v:
            raise ValueError(f"self-loop on vertex {u!r} not permitted in a simple graph")
        if u_label is not None:
            self.add_vertex(u, u_label)
        if v_label is not None:
            self.add_vertex(v, v_label)
        if u not in self._labels or v not in self._labels:
            missing = u if u not in self._labels else v
            raise KeyError(f"vertex {missing!r} has no label; add it first or pass labels inline")
        if v in self._adj[u]:
            return False
        self._adj[u].append(v)
        self._adj[v].append(u)
        self._num_edges += 1
        return True

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``; raises ``KeyError`` if absent."""
        if v not in self._adj.get(u, ()):  # pragma: no branch - simple guard
            raise KeyError(f"no edge {{{u!r}, {v!r}}}")
        self._adj[u].remove(v)
        self._adj[v].remove(u)
        self._num_edges -= 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all incident edges."""
        if v not in self._labels:
            raise KeyError(f"no vertex {v!r}")
        for w in list(self._adj[v]):
            self.remove_edge(v, w)
        del self._adj[v]
        del self._labels[v]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_vertex(self, v: Vertex) -> bool:
        return v in self._labels

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return v in self._adj.get(u, ())

    def label(self, v: Vertex) -> str:
        return self._labels[v]

    def degree(self, v: Vertex) -> int:
        return len(self._adj[v])

    def neighbors(self, v: Vertex) -> List[Vertex]:
        """The (live) list of neighbours of ``v``, each once, in the order
        their edges were first added.  Do not mutate."""
        return self._adj[v]

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._labels)

    def edges(self) -> Iterator[Edge]:
        """Iterate every edge exactly once, in normalised form."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                e = normalize_edge(u, v)
                if e[0] == u:
                    yield e

    def labels(self) -> Dict[Vertex, str]:
        """A *copy* of the vertex → label mapping."""
        return dict(self._labels)

    def label_set(self) -> Set[str]:
        """The set of distinct labels present (``LV`` in the paper)."""
        return set(self._labels.values())

    def label_counts(self) -> Dict[str, int]:
        """Label → number of vertices carrying it, in first-seen label order."""
        return dict(Counter(self._labels.values()))

    def vertices_with_label(self, label: str) -> List[Vertex]:
        return [v for v, lab in self._labels.items() if lab == label]

    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, v: Vertex) -> bool:
        return v in self._labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return f"<LabelledGraph{tag} |V|={self.num_vertices} |E|={self.num_edges} |LV|={len(self.label_set())}>"

    # ------------------------------------------------------------------
    # Derived graphs & structure
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "LabelledGraph":
        g = LabelledGraph(name if name is not None else self.name)
        g._labels = dict(self._labels)
        g._adj = {v: list(nbrs) for v, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        return g

    def subgraph(self, vertices: Iterable[Vertex]) -> "LabelledGraph":
        """The induced sub-graph on ``vertices``; each neighbour list keeps
        this graph's order."""
        keep = set(vertices)
        g = LabelledGraph(self.name)
        for v in keep:
            g._labels[v] = self._labels[v]
            g._adj[v] = [w for w in self._adj[v] if w in keep]
        g._num_edges = sum(map(len, g._adj.values())) // 2
        return g

    def edge_subgraph(self, edges: Iterable[Edge]) -> "LabelledGraph":
        """The sub-graph consisting of exactly ``edges`` and their endpoints.

        This is *not* induced: only the listed edges are present.  It is the
        shape of a motif match (a set of window edges, Sec. 3).
        """
        g = LabelledGraph(self.name)
        for u, v in edges:
            g.add_edge(u, v, self._labels[u], self._labels[v])
        return g

    def connected_components(self) -> List[Set[Vertex]]:
        """All connected components as vertex sets (iterative BFS)."""
        seen: Set[Vertex] = set()
        components: List[Set[Vertex]] = []
        for root in self._labels:
            if root in seen:
                continue
            comp = {root}
            frontier = [root]
            while frontier:
                nxt: List[Vertex] = []
                for v in frontier:
                    for w in self._adj[v]:
                        if w not in comp:
                            comp.add(w)
                            nxt.append(w)
                frontier = nxt
            seen |= comp
            components.append(comp)
        return components

    def is_connected(self) -> bool:
        if self.num_vertices == 0:
            return True
        return len(self.connected_components()) == 1

    def degree_histogram(self) -> Dict[int, int]:
        """Map degree → number of vertices with that degree."""
        hist: Dict[int, int] = {}
        for v in self._labels:
            d = len(self._adj[v])
            hist[d] = hist.get(d, 0) + 1
        return hist

    # ------------------------------------------------------------------
    # Interop / convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Vertex, str, Vertex, str]],
        name: str = "",
    ) -> "LabelledGraph":
        """Build a graph from ``(u, u_label, v, v_label)`` tuples."""
        g = cls(name)
        for u, lu, v, lv in edges:
            g.add_edge(u, v, lu, lv)
        return g

    @classmethod
    def from_label_map(
        cls,
        labels: Dict[Vertex, str],
        edges: Iterable[Tuple[Vertex, Vertex]],
        name: str = "",
    ) -> "LabelledGraph":
        """Build a graph from a label map plus plain edge pairs."""
        g = cls(name)
        for v, label in labels.items():
            g.add_vertex(v, label)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @classmethod
    def from_adjacency(
        cls,
        labels: Dict[Vertex, str],
        adjacency: Dict[Vertex, List[Vertex]],
        name: str = "",
    ) -> "LabelledGraph":
        """Adopt ready-built neighbour lists, unchecked and uncopied.

        For generators that build adjacency faster than :meth:`add_edge`
        can check it.  The caller guarantees that ``adjacency`` has
        exactly ``labels``' keys in the same order, that no list holds its
        own vertex or a repeat, and that ``w`` is in ``adjacency[v]``
        exactly when ``v`` is in ``adjacency[w]``.
        """
        g = cls(name)
        g._labels = labels
        g._adj = adjacency
        g._num_edges = sum(map(len, adjacency.values())) // 2
        return g

    def to_networkx(self):  # pragma: no cover - exercised in tests that need nx
        """Convert to a :class:`networkx.Graph` with ``label`` node attrs."""
        import networkx as nx

        g = nx.Graph()
        for v, label in self._labels.items():
            g.add_node(v, label=label)
        g.add_edges_from(self.edges())
        return g
