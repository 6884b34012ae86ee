"""The motif index: a support-filtered view of the TPSTry++ (paper Sec. 3).

A *motif* is a trie node whose support meets the user threshold ``T`` (Loom's
default is 40%).  Because support is monotone along trie paths, the motif
nodes form a downward-closed sub-DAG rooted at the single-edge motifs — if an
edge does not match a single-edge motif it can never participate in any
motif match, and Loom never windows it (its endpoints are placed by LDG, at
once or after a bounded wait — see :mod:`repro.core.loom`).

The index pre-computes exactly the lookups Alg. 2 performs in its inner
loops:

* *single-edge lookup*: label pair → motif node (or ``None``),
* *extension lookup*: (motif node, factor delta) → motif children.

This is the **object-level** view — nodes, string labels, tuple keys —
used for construction, introspection and tests.  The stream matcher does
not consume it directly: :meth:`MotifIndex.compile` lowers it once into a
flat integer :class:`~repro.core.plan.MotifPlan` (dense state ids, interned
labels, packed delta keys), and Alg. 2 runs on that.  The two views answer
identically — the plan is a representation change, not a semantic one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.signature import FactorMultiset, SignatureScheme
from repro.core.tpstry import DeltaKey, TPSTry, TrieNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.plan import MotifPlan
    from repro.graph.interning import LabelInterner

LabelPair = Tuple[str, str]


class MotifIndex:
    """Support-filtered TPSTry++ used by the stream matcher.

    Parameters
    ----------
    trie:
        A constructed :class:`~repro.core.tpstry.TPSTry`.
    threshold:
        Minimum support ``T`` for a node to count as a motif (Sec. 1.3
        "query motif"); the paper's default is 0.4.
    """

    def __init__(self, trie: TPSTry, threshold: float = 0.4) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("support threshold must lie in (0, 1]")
        self.trie = trie
        self.threshold = threshold
        self.scheme: SignatureScheme = trie.scheme

        motifs = trie.motif_nodes(threshold)
        self._motif_ids = {node.node_id for node in motifs}
        self._motifs: List[TrieNode] = sorted(motifs, key=lambda n: n.node_id)

        # Single-edge motifs, keyed two ways: by signature and by label pair.
        self._roots_by_signature: Dict[Tuple[int, ...], TrieNode] = {}
        self._roots_by_labels: Dict[LabelPair, Optional[TrieNode]] = {}
        for node in trie.single_edge_nodes():
            if node.node_id in self._motif_ids:
                self._roots_by_signature[node.signature.key] = node
                pair = _label_pair_of(node)
                if pair is not None:
                    self._roots_by_labels[pair] = node

        # (node, delta) -> motif children only.
        self._motif_children: Dict[Tuple[int, DeltaKey], List[TrieNode]] = {}
        for node in self._motifs:
            for delta_key, children in node.children_by_delta.items():
                kept = [c for c in children if c.node_id in self._motif_ids]
                if kept:
                    self._motif_children[(node.node_id, delta_key)] = kept
        # Nodes with at least one motif child.  A match at a leaf motif can
        # never extend or join — the matcher's inner loops gate on this set
        # before doing any factor arithmetic.
        self._extensible_ids = {nid for nid, _delta in self._motif_children}

    # ------------------------------------------------------------------
    # Lookups used by Alg. 2
    # ------------------------------------------------------------------
    def is_motif(self, node: TrieNode) -> bool:
        return node.node_id in self._motif_ids

    def single_edge_motif(self, label_u: str, label_v: str) -> Optional[TrieNode]:
        """The motif matched by a lone ``label_u``–``label_v`` edge, if any.

        This is the gate of Sec. 3: an arriving edge failing this lookup is
        certain never to join a motif match and bypasses the window.
        """
        pair: LabelPair = tuple(sorted((label_u, label_v)))  # type: ignore[assignment]
        if pair in self._roots_by_labels:
            return self._roots_by_labels[pair]
        sig = self.scheme.single_edge_signature(label_u, label_v)
        node = self._roots_by_signature.get(sig.key)
        self._roots_by_labels[pair] = node
        return node

    def motif_children(self, node: TrieNode, delta: FactorMultiset) -> List[TrieNode]:
        """Motif children of ``node`` whose signature adds exactly ``delta``.

        Alg. 2 line 7: "if n has child c w. factor = factors(e, m)".
        """
        return self._motif_children.get((node.node_id, delta.key), [])

    def motif_children_by_key(self, node: TrieNode, delta_key: DeltaKey) -> List[TrieNode]:
        """Key-based variant of :meth:`motif_children` for the matcher's hot
        path (pairs with :meth:`SignatureScheme.addition_key`)."""
        return self._motif_children.get((node.node_id, delta_key), [])

    @property
    def extensible_ids(self):
        """The live set of node ids with at least one motif child — a
        match at any other (leaf) motif can never grow by extension or
        join, so the matcher's inner loops bind this set once and gate on
        it.  Treat as read-only."""
        return self._extensible_ids

    def support(self, node: TrieNode) -> float:
        return node.support

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, labels: Optional["LabelInterner"] = None) -> "MotifPlan":
        """Lower this index into a flat integer :class:`MotifPlan`.

        Cheap relative to trie construction; rebuild after workload drift
        (``TPSTry.apply_workload_frequencies`` + a fresh index) to refresh
        the matcher's compiled form.  ``labels`` lets callers share one
        label-id space across recompiles.
        """
        from repro.core.plan import MotifPlan

        return MotifPlan(self, labels=labels)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def motifs(self) -> List[TrieNode]:
        return list(self._motifs)

    @property
    def num_motifs(self) -> int:
        return len(self._motifs)

    @property
    def max_motif_edges(self) -> int:
        """Edges in the largest motif — bounds how far any match can grow."""
        return max((n.num_edges for n in self._motifs), default=0)

    def single_edge_motifs(self) -> List[TrieNode]:
        return sorted(self._roots_by_signature.values(), key=lambda n: n.node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MotifIndex T={self.threshold:.0%} motifs={self.num_motifs} "
            f"roots={len(self._roots_by_signature)} max|E|={self.max_motif_edges}>"
        )


def _label_pair_of(node: TrieNode) -> Optional[LabelPair]:
    """The sorted label pair of a single-edge node's exemplar."""
    labels = sorted(node.exemplar.labels().values())
    if len(labels) != 2:  # pragma: no cover - exemplar of a 1-edge node has 2 vertices
        return None
    return (labels[0], labels[1])
