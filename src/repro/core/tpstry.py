"""TPSTry++: the Traversal Pattern Summary Trie (paper Sec. 2, Alg. 1).

The TPSTry++ encodes **every connected sub-graph of every query graph** in a
workload ``Q`` as a node in a DAG:

* every node represents a graph (identified by its factor-multiset
  signature, so isomorphic sub-graphs from different queries merge),
* a parent's graph is a sub-graph of each child's graph, one edge smaller,
* every trie edge is annotated with the *factor delta* — the three factors
  (edge + two degree factors) that multiply the parent's signature when the
  corresponding edge is added,
* every node carries a **support**: the summed frequency of the workload
  queries whose query graph contains the node's graph.  Support is
  monotonically non-increasing along any root-to-leaf path (each occurrence
  of a graph implies an occurrence of all its sub-graphs), which is what
  makes motif filtering (Sec. 3) sound.

Construction follows Alg. 1 in spirit: each query graph is "rebuilt" from
every edge, growing connected sub-graphs one incident edge at a time and
computing signatures incrementally.  We deduplicate sub-graphs by edge set,
so each connected sub-graph of a query is visited exactly once per query.

The object DAG built here is the **construction and debug representation**.
The stream matcher does not walk it: :meth:`TPSTry.compile` (or
:meth:`~repro.core.motifs.MotifIndex.compile`) lowers the support-filtered
trie into a flat, integer-keyed :class:`~repro.core.plan.MotifPlan` once
per workload, and Alg. 2 runs entirely on that compiled form.  Node ids are
**per-trie** (the root is always 0, ids are dense in construction order),
so two tries built from the same workload carry identical ids regardless of
how many tries the process built before — a property the plan's dense state
renumbering and every id-keyed ordering rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.signature import EMPTY_SIGNATURE, FactorMultiset, SignatureScheme
from repro.graph.labelled_graph import Edge, LabelledGraph, Vertex, normalize_edge
from repro.query.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (plan imports motifs)
    from repro.core.plan import MotifPlan

DeltaKey = Tuple[int, ...]
EdgeSet = FrozenSet[Edge]


class TrieNode:
    """One TPSTry++ node: a distinct (up to signature) connected sub-graph."""

    __slots__ = (
        "node_id",
        "signature",
        "exemplar",
        "num_edges",
        "support",
        "children_by_delta",
        "children",
        "parents",
    )

    def __init__(
        self,
        signature: FactorMultiset,
        exemplar: LabelledGraph,
        num_edges: int,
        node_id: int,
    ) -> None:
        #: Dense id within the owning trie (root = 0, then construction
        #: order).  Assigned by :class:`TPSTry`, never by a global counter:
        #: cross-instance-coupled ids would make any ordering keyed on them
        #: depend on how many tries the process happened to build earlier.
        self.node_id: int = node_id
        self.signature = signature
        self.exemplar = exemplar
        self.num_edges = num_edges
        self.support: float = 0.0
        #: factor-delta key -> children reachable by adding an edge with that delta
        self.children_by_delta: Dict[DeltaKey, List["TrieNode"]] = {}
        self.children: Set["TrieNode"] = set()
        self.parents: Set["TrieNode"] = set()

    def add_child(self, delta: FactorMultiset, child: "TrieNode") -> None:
        bucket = self.children_by_delta.setdefault(delta.key, [])
        if child not in bucket:
            bucket.append(child)
        self.children.add(child)
        child.parents.add(self)

    def __hash__(self) -> int:
        return self.node_id

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labels = "-".join(sorted(self.exemplar.labels().values())) if self.num_edges else "ε"
        return f"<TrieNode #{self.node_id} {labels} |E|={self.num_edges} supp={self.support:.2f}>"


class TPSTry:
    """The TPSTry++ DAG for a query workload.

    Parameters
    ----------
    scheme:
        The signature scheme shared with the stream matcher.  Using one
        scheme for trie construction and matching is essential: signatures
        only compare within a single assignment of label values.
    """

    def __init__(self, scheme: SignatureScheme) -> None:
        self.scheme = scheme
        self._next_node_id = 0
        self.root = TrieNode(EMPTY_SIGNATURE, LabelledGraph("ε"), 0, self._take_node_id())
        self.root.support = 1.0  # the empty graph occurs in every query
        self._nodes: Dict[Tuple[int, ...], TrieNode] = {EMPTY_SIGNATURE.key: self.root}
        self._queries_added = 0
        #: query name -> (frequency, signatures of its sub-graphs); kept so
        #: frequency changes update supports without re-enumeration
        #: (Sec. 5.1.2: the trie "may be trivially updated" under drift).
        self._query_signatures: Dict[str, Tuple[float, Set[Tuple[int, ...]]]] = {}

    # ------------------------------------------------------------------
    # Construction (Alg. 1)
    # ------------------------------------------------------------------
    @classmethod
    def from_workload(cls, workload: Workload, scheme: Optional[SignatureScheme] = None) -> "TPSTry":
        """Build the full TPSTry++ for ``workload`` (Fig. 3's merge process)."""
        scheme = scheme or SignatureScheme(workload.label_set())
        trie = cls(scheme)
        for entry in workload:
            trie.add_query(entry.pattern, entry.frequency)
        return trie

    def add_query(self, pattern: LabelledGraph, frequency: float) -> None:
        """Add one query graph with its relative frequency.

        Enumerates every connected edge-sub-graph of ``pattern`` exactly
        once (deduplicated by edge set), creating/merging trie nodes keyed
        by signature and linking parents to children with factor deltas.
        The support of every *distinct signature* reached is incremented by
        ``frequency`` once — a sub-graph occurring many times within one
        query still counts that query's frequency once, matching Fig. 2
        (a-b has support 100% under q1:30/q2:60/q3:10).
        """
        if frequency <= 0:
            raise ValueError("query frequency must be positive")
        if pattern.num_edges == 0:
            raise ValueError(f"query {pattern.name!r} has no edges")

        edges = [normalize_edge(u, v) for u, v in pattern.edges()]
        signatures_this_query: Set[Tuple[int, ...]] = set()

        # Lattice frontier: edge-set -> its signature. Level 1 = single edges.
        frontier: Dict[EdgeSet, FactorMultiset] = {}
        for e in edges:
            sig = self.scheme.single_edge_signature(pattern.label(e[0]), pattern.label(e[1]))
            subgraph = frozenset([e])
            frontier[subgraph] = sig
            node = self._ensure_node(sig, pattern, subgraph)
            self.root.add_child(sig, node)
            signatures_this_query.add(sig.key)

        visited: Set[EdgeSet] = set(frontier)
        while frontier:
            next_frontier: Dict[EdgeSet, FactorMultiset] = {}
            for subgraph, sig in frontier.items():
                parent = self._nodes[sig.key]
                degrees = _subgraph_degrees(subgraph)
                for e in _incident_edges(pattern, subgraph, degrees):
                    extended = subgraph | {e}
                    delta = self.scheme.addition_factors(
                        pattern.label(e[0]),
                        pattern.label(e[1]),
                        degrees.get(e[0], 0),
                        degrees.get(e[1], 0),
                    )
                    child_sig = sig.merge(delta)
                    child = self._ensure_node(child_sig, pattern, extended)
                    parent.add_child(delta, child)
                    signatures_this_query.add(child_sig.key)
                    if extended not in visited:
                        visited.add(extended)
                        next_frontier[extended] = child_sig
            frontier = next_frontier

        for key in sorted(signatures_this_query):
            self._nodes[key].support += frequency
        self._queries_added += 1
        if pattern.name:
            self._query_signatures[pattern.name] = (frequency, signatures_this_query)

    def update_frequency(self, query_name: str, new_frequency: float) -> None:
        """Adjust one query's frequency in place (workload drift support).

        Supports are additive per query, so moving a query from frequency
        ``f1`` to ``f2`` adds ``f2 − f1`` to every sub-graph the query
        contributed — no re-enumeration, exactly the "trivial update" of
        Sec. 5.1.2.  The caller is responsible for keeping the workload's
        frequencies normalised (e.g. via ``Workload.reweighted``) and for
        rebuilding any :class:`~repro.core.motifs.MotifIndex`, whose motif
        set may change.
        """
        if new_frequency <= 0:
            raise ValueError("query frequency must be positive")
        try:
            old_frequency, signatures = self._query_signatures[query_name]
        except KeyError:
            raise KeyError(
                f"no query named {query_name!r} in this trie; "
                "only named patterns support frequency updates"
            ) from None
        delta = new_frequency - old_frequency
        for key in signatures:
            self._nodes[key].support += delta
        self._query_signatures[query_name] = (new_frequency, signatures)

    def apply_workload_frequencies(self, workload: Workload) -> None:
        """Re-sync supports with ``workload``'s (possibly drifted) frequencies."""
        for entry in workload:
            name = entry.pattern.name
            if name in self._query_signatures:
                self.update_frequency(name, entry.frequency)

    def query_frequencies(self) -> Dict[str, float]:
        """The per-query frequencies currently reflected in the supports."""
        return {name: freq for name, (freq, _sigs) in self._query_signatures.items()}

    def _take_node_id(self) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        return node_id

    def _ensure_node(self, sig: FactorMultiset, pattern: LabelledGraph, edge_set: EdgeSet) -> TrieNode:
        node = self._nodes.get(sig.key)
        if node is None:
            node = TrieNode(sig, pattern.edge_subgraph(edge_set), len(edge_set), self._take_node_id())
            self._nodes[sig.key] = node
        return node

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, threshold: float = 0.4) -> "MotifPlan":
        """Lower the support-filtered trie into a flat integer automaton.

        Convenience over ``MotifIndex(self, threshold).compile()``: builds
        the support-filtered :class:`~repro.core.motifs.MotifIndex` view
        and emits the :class:`~repro.core.plan.MotifPlan` the stream
        matcher executes.  The object DAG stays untouched (construction /
        debug / drift updates); recompile after
        :meth:`apply_workload_frequencies` to refresh the plan.
        """
        from repro.core.motifs import MotifIndex

        return MotifIndex(self, threshold).compile()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node_for_signature(self, sig: FactorMultiset) -> Optional[TrieNode]:
        return self._nodes.get(sig.key)

    def node_for_graph(self, graph: LabelledGraph) -> Optional[TrieNode]:
        """The node matching ``graph``'s signature, if any."""
        return self.node_for_signature(self.scheme.graph_signature(graph))

    def nodes(self, include_root: bool = False) -> Iterator[TrieNode]:
        for node in self._nodes.values():
            if node is self.root and not include_root:
                continue
            yield node

    def single_edge_nodes(self) -> List[TrieNode]:
        return sorted(self.root.children, key=lambda n: n.node_id)

    def motif_nodes(self, threshold: float) -> List[TrieNode]:
        """Nodes whose support meets ``threshold`` (the shaded nodes of Fig. 2)."""
        if not 0.0 < threshold <= 1.0:
            raise ValueError("support threshold must lie in (0, 1]")
        eps = 1e-9  # guard against float summation of frequencies
        return [n for n in self.nodes() if n.support + eps >= threshold]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Node count, excluding the ε root."""
        return len(self._nodes) - 1

    @property
    def num_queries(self) -> int:
        return self._queries_added

    @property
    def max_depth(self) -> int:
        """Edges in the largest encoded sub-graph (= largest query graph)."""
        return max((n.num_edges for n in self.nodes()), default=0)

    def check_support_monotone(self) -> bool:
        """Verify the invariant support(child) <= support(parent).

        Used by the test-suite; a violation would break the motif-filter
        argument of Sec. 3 (non-motif nodes cannot have motif descendants).
        """
        eps = 1e-9
        for node in self.nodes(include_root=True):
            for child in node.children:
                if child.support > node.support + eps:
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TPSTry nodes={self.num_nodes} queries={self._queries_added} depth={self.max_depth}>"


def _subgraph_degrees(
    edge_set: Iterable[Edge],
) -> Dict[Vertex, int]:  # detlint: disable=INT-boundary (pattern graphs stay raw pre-interning)
    """Degrees of every vertex *within* an edge sub-graph."""
    degrees: Dict[Vertex, int] = {}  # detlint: disable=INT-boundary (pattern-vertex keys)
    for u, v in edge_set:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    return degrees


def _incident_edges(
    pattern: LabelledGraph,
    subgraph: EdgeSet,
    degrees: Dict[Vertex, int],  # detlint: disable=INT-boundary (pattern-vertex keys)
) -> List[Edge]:
    """Pattern edges not in ``subgraph`` but sharing a vertex with it.

    Ordered by the pattern's vertex insertion rank (not set/dict iteration
    order) so trie node numbering is canonical for a given query file.
    """
    rank = {v: i for i, v in enumerate(pattern.vertices())}
    out: List[Edge] = []
    seen: Set[Edge] = set()
    for v in sorted(degrees, key=rank.__getitem__):
        for w in sorted(pattern.neighbors(v), key=rank.__getitem__):
            e = normalize_edge(v, w)
            if e not in subgraph and e not in seen:
                seen.add(e)
                out.append(e)
    return out
