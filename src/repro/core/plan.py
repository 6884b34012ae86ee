"""MotifPlan: the TPSTry++/MotifIndex compiled to a flat integer automaton.

The object trie (:mod:`repro.core.tpstry`) and its support-filtered view
(:mod:`repro.core.motifs`) are built from, and answer in, Python objects:
``TrieNode`` instances, string labels, tuple-of-tuple dict keys.  That is
the right representation for construction, drift updates and debugging —
and the wrong one for Alg. 2's inner loops, which perform exactly two
lookups per candidate edge, millions of times per stream:

* *root lookup*: does the arriving ``(label_u, label_v)`` edge match a
  single-edge motif?  (Sec. 3's window gate.)
* *extension lookup*: does motif node ``n`` have a motif child across the
  factor delta of adding this edge?  (Alg. 2 line 7, also the engine of
  the pair-join growth.)

``MotifPlan`` lowers the motif sub-DAG once, ahead of the stream (the same
query-aware precomputation TAPER performs offline, moved to ingest time):

* **labels** are interned to dense ints (:class:`~repro.graph.interning.LabelInterner`),
  shared with the sliding window's id → label map;
* **states** are the motif nodes renumbered to dense ids ``0..n-1`` (in
  ``node_id`` order, i.e. per-trie construction order — deterministic);
* **factor deltas** are packed into single ints
  (:func:`~repro.core.signature.pack_delta_key`) and further interned to
  dense *delta ids*, so the extension lookup is one small-int dict probe
  keyed ``(state << delta_shift) | delta_id``;
* **root lookup** is keyed by the packed single-edge signature, preserving
  the object index's semantics exactly — including the (improbable)
  signature-collision false positives the paper licenses, which a naive
  by-label-pair table would drop;
* per-state **metadata arrays** (``support``, ``neg_support``,
  ``num_edges``, ``extensible``, ``max_degree``) replace attribute
  chases through ``TrieNode`` objects.

Every lookup agrees with the object :class:`~repro.core.motifs.MotifIndex`
bit for bit (``tests/test_plan.py`` proves it exhaustively and on
randomized workloads); the compile is a pure representation change, so a
full pipeline run is bit-identical pre/post compile.  Rebuilding the plan
after workload drift is one :meth:`MotifIndex.compile` call — the object
DAG absorbs the frequency updates, the plan is cheap to re-emit.

The matcher binds the plan's internal tables directly (in-package inner
loops may; see ARCHITECTURE.md).  Outside code should treat a plan as an
immutable compiled artifact and go through the query helpers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.core.signature import SignatureScheme, pack_delta_key
from repro.core.tpstry import DeltaKey, TrieNode
from repro.graph.interning import LabelInterner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.motifs import MotifIndex

NO_STATE = -1
"""Sentinel for "no motif state" in memo tables (plays the role of ``None``
while keeping the hot-path entries plain ints)."""


class MotifPlan:
    """A compiled, flat-integer view of a support-filtered TPSTry++.

    Build via :meth:`MotifIndex.compile` / :meth:`TPSTry.compile`.  All
    state arrays are indexed by dense state id; :meth:`node_of` /
    :meth:`state_of` translate to and from the object DAG for debugging
    and tests.
    """

    __slots__ = (
        "index",
        "scheme",
        "labels",
        "threshold",
        "num_states",
        "support",
        "neg_support",
        "num_edges",
        "extensible",
        "max_degree",
        "max_motif_edges",
        "motif_labels",
        "_nodes",
        "_state_of",
        "_factor_bits",
        "_roots_by_sig",
        "_root_memo",
        "_delta_ids",
        "_delta_shift",
        "successor_rows",
        "_delta_memo",
    )

    def __init__(self, index: "MotifIndex", labels: Optional[LabelInterner] = None) -> None:
        self.index = index
        self.scheme: SignatureScheme = index.scheme
        self.threshold = index.threshold
        #: Label ↔ id bijection shared with the window's id → label map.
        #: The workload alphabet is interned eagerly (sorted, so ids are
        #: independent of construction incidentals); stream-only labels
        #: intern lazily on first sight.
        self.labels = labels if labels is not None else LabelInterner()
        for label in sorted(self.scheme.known_labels()):
            self.labels.intern(label)

        motifs = index.motifs  # node_id order == per-trie construction order
        self.num_states = len(motifs)
        self._nodes: List[TrieNode] = motifs
        self._state_of: Dict[int, int] = {n.node_id: s for s, n in enumerate(motifs)}

        # Per-state metadata arrays (Alg. 2 reads these once per match).
        self.support: List[float] = [n.support for n in motifs]
        #: ``-support``, one float per state: the first field of every
        #: match's sort key, shared by all matches of the state.
        self.neg_support: List[float] = [-s for s in self.support]
        self.num_edges: List[int] = [n.num_edges for n in motifs]
        extensible_ids = index.extensible_ids
        self.extensible: List[bool] = [n.node_id in extensible_ids for n in motifs]
        self.max_degree: List[int] = [
            max((n.exemplar.degree(v) for v in n.exemplar.vertices()), default=0)
            for n in motifs
        ]
        self.max_motif_edges = index.max_motif_edges
        #: Every label some motif vertex carries: a vertex with any other
        #: label can never sit on a motif edge, so no auction will place it.
        self.motif_labels: FrozenSet[str] = frozenset(
            label for n in motifs for label in n.exemplar.labels().values()
        )

        self._factor_bits = self.scheme.factor_bits

        # Root table: packed single-edge signature -> root state.  Keyed by
        # signature (not label pair) to preserve the object index's exact
        # semantics: a label pair whose lone-edge signature collides with a
        # motif's is a false positive there too.
        self._roots_by_sig: Dict[int, int] = {}
        for node in index.single_edge_motifs():
            packed = pack_delta_key(node.signature.key, self._factor_bits)
            self._roots_by_sig[packed] = self._state_of[node.node_id]
        #: (u_label, v_label) as seen on the stream -> (state|NO_STATE, lu, lv).
        #: One dict hit answers the window gate *and* hands the matcher both
        #: label ids; misses are memoised too (most stream edges of a
        #: non-motif label pair repeat).
        self._root_memo: Dict[Tuple[str, str], Tuple[int, int, int]] = {}

        # Extension table.  Two-level interning: packed factor triple ->
        # dense delta id (compile time), then (state << delta_shift) |
        # delta_id -> successor states (runtime, one small-int probe).
        self._delta_ids: Dict[int, int] = {}
        entries: List[Tuple[int, int, Tuple[int, ...]]] = []
        for state, node in enumerate(motifs):
            if not self.extensible[state]:
                continue
            for delta_key, children in node.children_by_delta.items():
                kept = tuple(
                    self._state_of[c.node_id]
                    for c in children
                    if c.node_id in self._state_of
                )
                if not kept:
                    continue
                packed = pack_delta_key(delta_key, self._factor_bits)
                delta_id = self._delta_ids.setdefault(packed, len(self._delta_ids))
                entries.append((state, delta_id, kept))
        self._delta_shift = max(1, (max(len(self._delta_ids) - 1, 1)).bit_length())
        #: The successor table as a dense row array indexed by the packed
        #: ``(state << delta_shift) | delta_id`` key (``None`` rows = no
        #: successors): the matcher's inner loop reads it (a C list index
        #: instead of an int-dict probe), and so do the boundary helpers
        #: (:meth:`successors`).  Size is ``num_states << delta_shift``
        #: (delta ids never exceed ``2**delta_shift``), small for any
        #: realistic workload.
        self.successor_rows: List[Optional[Tuple[int, ...]]] = [None] * (
            self.num_states << self._delta_shift
        )
        for state, delta_id, kept in entries:
            self.successor_rows[(state << self._delta_shift) | delta_id] = kept
        #: (lu, lv, du, dv) -> delta id, or NO_STATE when the probed factor
        #: triple appears in no successor entry anywhere (a *global* miss:
        #: the object index would return [] for every state, so skipping
        #: the per-state probe is exact).  The matcher reads this dict
        #: directly; late entries (collision pathologies, stream-only
        #: labels) populate lazily through :meth:`delta_id`.
        self._delta_memo: Dict[Tuple[int, int, int, int], int] = {}
        self._warm_delta_memo()

    def _warm_delta_memo(self) -> None:
        """Pre-compute the delta memo over Alg. 2's probe domain.

        A match's per-vertex degrees mirror the matched sub-graph's, so
        (collision pathologies aside — those take the lazy path) every
        runtime probe draws degrees from ``[0, max(max_degree)]`` and
        labels from the workload alphabet: exactly the domain the motif
        index "pre-computes" in the paper's reading (Sec. 3), bounded by
        the per-state ``max_degree`` metadata.  Warming it at compile time
        keeps the scheme's string-keyed factor arithmetic entirely off the
        stream for in-domain probes.
        """
        max_deg = max(self.max_degree, default=0)
        delta_id = self.delta_id
        workload_label_ids = range(len(self.labels))
        for lu in workload_label_ids:
            for lv in workload_label_ids:
                for du in range(max_deg + 1):
                    for dv in range(max_deg + 1):
                        delta_id(lu, lv, du, dv)

    # ------------------------------------------------------------------
    # The two hot lookups (Alg. 2)
    # ------------------------------------------------------------------
    def root_entry(self, u_label: str, v_label: str) -> Tuple[int, int, int]:
        """``(root_state, lu, lv)`` for an arriving edge; state is
        :data:`NO_STATE` when the edge matches no single-edge motif (the
        Sec. 3 gate — the caller places it immediately)."""
        got = self._root_memo.get((u_label, v_label))
        if got is None:
            lu = self.labels.intern(u_label)
            lv = self.labels.intern(v_label)
            packed = pack_delta_key(
                self.scheme.addition_key(u_label, v_label, 0, 0), self._factor_bits
            )
            got = (self._roots_by_sig.get(packed, NO_STATE), lu, lv)
            self._root_memo[(u_label, v_label)] = got
        return got

    def delta_id(self, lu: int, lv: int, du: int, dv: int) -> int:
        """The dense delta id of adding an ``lu``–``lv`` edge at endpoint
        degrees ``(du, dv)``, or :data:`NO_STATE` when that factor triple
        keys no successor entry of any state.

        This is the slow path behind the matcher's inline
        ``_delta_memo.get(...)``; it computes the factor triple through the
        *same* :meth:`SignatureScheme.addition_key` arithmetic the object
        index uses (so collision behaviour is preserved exactly) and
        memoises the result.
        """
        key = (lu, lv, du, dv)
        got = self._delta_memo.get(key)
        if got is None:
            label = self.labels.label
            packed = pack_delta_key(
                self.scheme.addition_key(label(lu), label(lv), du, dv),
                self._factor_bits,
            )
            got = self._delta_ids.get(packed, NO_STATE)
            self._delta_memo[key] = got
        return got

    def successors(self, state: int, lu: int, lv: int, du: int, dv: int) -> Tuple[int, ...]:
        """Motif successor states of ``state`` across the delta of adding
        an ``lu``–``lv`` edge at degrees ``(du, dv)`` — the boundary twin
        of the matcher's inlined probe."""
        delta = self.delta_id(lu, lv, du, dv)
        if delta < 0:
            return ()
        return self.successor_rows[(state << self._delta_shift) | delta] or ()

    def successors_by_delta_key(self, state: int, delta_key: DeltaKey) -> Tuple[int, ...]:
        """Successor states for an explicit factor-key tuple (test/debug
        mirror of :meth:`MotifIndex.motif_children_by_key`)."""
        packed = pack_delta_key(delta_key, self._factor_bits)
        delta = self._delta_ids.get(packed, NO_STATE)
        if delta < 0:
            return ()
        return self.successor_rows[(state << self._delta_shift) | delta] or ()

    # ------------------------------------------------------------------
    # Boundary translation / introspection
    # ------------------------------------------------------------------
    def node_of(self, state: int) -> TrieNode:
        """The object-DAG node behind a dense state id (debug boundary)."""
        return self._nodes[state]

    def state_of(self, node: TrieNode) -> Optional[int]:
        """The dense state id of a motif node, ``None`` for non-motifs."""
        return self._state_of.get(node.node_id)

    @property
    def num_deltas(self) -> int:
        """Distinct factor deltas keying successor entries."""
        return len(self._delta_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MotifPlan states={self.num_states} deltas={self.num_deltas} "
            f"labels={len(self.labels)} max|E|={self.max_motif_edges}>"
        )
