"""Schema-driven synthetic labelled-graph generation.

Each of the paper's datasets is described by a :class:`Schema`: relative
vertex counts per label and a set of :class:`RelationRule` s saying how
often vertices of one label connect to vertices of another, with what
attachment bias (uniform vs preferential — preferential produces the heavy
tails of citation/collaboration data) and how strongly edges stay inside
community clusters (community structure is what gives BFS/DFS stream orders
their locality advantage over random order, Sec. 5.3).

The output is a plain :class:`~repro.graph.labelled_graph.LabelledGraph`;
everything downstream (streams, partitioners, executor) is agnostic to how
it was produced.

Every benchmark run, paper-claims cell and CLI run generates its graph
before the first edge is streamed, so :func:`generate_graph` is one loop
over plain lists and bound generator methods: it writes the standard
library's ``choice`` out inline and builds the neighbour lists itself,
handing them to the graph once at the end.  The graphs are fixed draw for
draw: ``tests/test_datasets.py`` pins a digest of each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.labelled_graph import LabelledGraph


@dataclass(frozen=True)
class RelationRule:
    """One edge-generation rule: ``source`` vertices link to ``target`` s.

    Parameters
    ----------
    source, target:
        Vertex labels (may be equal for intra-label relations such as paper
        citations).
    mean_degree:
        Average number of edges generated *per source vertex* by this rule.
        Non-integer means are honoured in expectation.
    attachment:
        ``"uniform"`` or ``"preferential"`` — preferential targets are drawn
        proportionally to (degree + 1), yielding skewed hubs.
    locality:
        Probability that the target is drawn from the source's community
        (when communities exist); the complement is drawn globally.
    max_target_degree:
        Optional cap on a target's degree: candidates at or above the cap
        are re-sampled.  Keeps hub skew realistic at laptop scale — an
        uncapped preferential pool over a few dozen vertices otherwise
        produces degree-hundreds super-hubs no partitioner can do anything
        about, which flattens the differences the evaluation measures.
    """

    source: str
    target: str
    mean_degree: float
    attachment: str = "uniform"
    locality: float = 0.8
    max_target_degree: Optional[int] = 48

    def __post_init__(self) -> None:
        if self.mean_degree < 0:
            raise ValueError("mean_degree must be non-negative")
        if self.attachment not in ("uniform", "preferential"):
            raise ValueError(f"unknown attachment {self.attachment!r}")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError("locality must lie in [0, 1]")
        if self.max_target_degree is not None and self.max_target_degree < 1:
            raise ValueError("max_target_degree must be positive when given")


@dataclass(frozen=True)
class Schema:
    """A dataset schema: label mix plus relation rules."""

    name: str
    label_weights: Dict[str, float]
    rules: Sequence[RelationRule] = field(default_factory=tuple)
    communities: int = 1

    def __post_init__(self) -> None:
        if not self.label_weights:
            raise ValueError("schema needs at least one label")
        if any(w <= 0 for w in self.label_weights.values()):
            raise ValueError("label weights must be positive")
        if self.communities < 1:
            raise ValueError("communities must be at least 1")
        known = set(self.label_weights)
        for rule in self.rules:
            if rule.source not in known or rule.target not in known:
                raise ValueError(
                    f"rule {rule.source}->{rule.target} references a label "
                    f"outside the schema's alphabet {sorted(known)}"
                )

    @property
    def labels(self) -> List[str]:
        return sorted(self.label_weights)


def _allocate_labels(
    schema: Schema, num_vertices: int, rng: random.Random
) -> Dict[str, List[int]]:
    """Deterministically split ``num_vertices`` ids across labels by weight.

    Every label receives at least one vertex so each schema rule can fire.
    """
    labels = schema.labels
    if num_vertices < len(labels):
        raise ValueError(
            f"need at least {len(labels)} vertices for schema {schema.name!r}, got {num_vertices}"
        )
    total_weight = sum(schema.label_weights.values())
    counts = {lab: max(1, int(num_vertices * schema.label_weights[lab] / total_weight)) for lab in labels}
    # Fix rounding drift toward the exact total.
    drift = num_vertices - sum(counts.values())
    order = sorted(labels, key=lambda lab: -schema.label_weights[lab])
    i = 0
    while drift != 0:
        label = order[i % len(order)]
        if drift > 0:
            counts[label] += 1
            drift -= 1
        elif counts[label] > 1:
            counts[label] -= 1
            drift += 1
        i += 1

    by_label: Dict[str, List[int]] = {}
    next_id = 0
    for label in labels:
        by_label[label] = list(range(next_id, next_id + counts[label]))
        next_id += counts[label]
    return by_label


#: One label's target pools: global, and one per community.
_Pools = Tuple[List[int], List[Optional[List[int]]]]


def generate_graph(
    schema: Schema,
    num_vertices: int,
    seed: int = 0,
    name: str = "",
) -> LabelledGraph:
    """Generate a labelled graph realising ``schema`` at ``num_vertices``.

    Deterministic for a given ``(schema, num_vertices, seed)``.  Duplicate
    edges and self-loops are skipped (with bounded retries), so realised
    degree means can fall slightly below the rule means in tiny populations.

    Each rule draws its targets from a pool of the target label's vertices,
    from the source's community with probability ``locality`` (when there
    are communities and that community has the label) and globally
    otherwise.  A uniform rule's pool is the label's vertices; a
    preferential rule's holds each vertex once per unit of degree plus
    one, so a uniform draw from it is a draw proportional to
    (degree + 1).  A draw is ``random.Random.choice`` written out: an
    index below the pool size, by rejection from ``getrandbits``.
    """
    rng = random.Random(seed)
    by_label = _allocate_labels(schema, num_vertices, rng)
    communities = schema.communities

    # Ids run 0..num_vertices-1 through the labels in order, so every
    # per-vertex table is a list indexed by id.
    community_of = [rng.randrange(communities) for _ in range(num_vertices)]
    adj: List[List[int]] = [[] for _ in range(num_vertices)]

    # Per label: the uniform pool and the growing degree-weighted pool,
    # each globally and per community (None where the community lacks the
    # label).
    uniform_pools: Dict[str, _Pools] = {}
    degree_pools: Dict[str, _Pools] = {}
    for label, vertices in by_label.items():
        buckets: List[List[int]] = [[] for _ in range(communities)]
        for v in vertices:
            buckets[community_of[v]].append(v)
        uniform_pools[label] = (vertices, [b or None for b in buckets])
        degree_pools[label] = (list(vertices), [list(b) if b else None for b in buckets])

    random_ = rng.random
    getrandbits = rng.getrandbits
    for rule in schema.rules:
        preferential = rule.attachment == "preferential"
        global_pool, local_pools = (degree_pools if preferential else uniform_pools)[rule.target]
        locality = rule.locality if communities > 1 else None
        # A degree never reaches num_vertices, so that cap never binds.
        cap = num_vertices if rule.max_target_degree is None else rule.max_target_degree
        whole = int(rule.mean_degree)
        fraction = rule.mean_degree - whole
        for source in by_label[rule.source]:
            count = whole + 1 if random_() < fraction else whole
            source_adj = adj[source]
            home = local_pools[community_of[source]] or global_pool
            for _ in range(count):
                for _attempt in range(8):  # skip self-loops / dups / capped hubs
                    pool = home if locality is not None and random_() < locality else global_pool
                    n = len(pool)
                    k = n.bit_length()
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    target = pool[r]
                    if target != source and target not in source_adj and len(adj[target]) < cap:
                        break
                else:
                    continue
                source_adj.append(target)
                adj[target].append(source)
                if preferential:
                    global_pool.append(target)
                    local_pools[community_of[target]].append(target)

    # Isolated vertices never appear in an edge stream (streams carry edge
    # events), so no streaming partitioner could ever place them; drop them.
    labels = {v: label for label, vertices in by_label.items() for v in vertices if adj[v]}
    return LabelledGraph.from_adjacency(labels, {v: adj[v] for v in labels}, name or schema.name)


def realized_label_counts(graph: LabelledGraph) -> Dict[str, int]:
    """Label → vertex count (Table 1 reporting helper)."""
    return graph.label_counts()
