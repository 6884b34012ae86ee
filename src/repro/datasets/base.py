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


class _TargetSampler:
    """Samples target vertices for one (label, community) population.

    Preferential sampling uses the classic repeated-entry pool: a vertex
    appears once per unit of degree plus one, so a uniform draw from the
    pool is a draw proportional to (degree + 1).
    """

    def __init__(self, vertices: Sequence[int], rng: random.Random) -> None:
        self._vertices = list(vertices)
        self._pool = list(vertices)
        self._rng = rng

    def sample_uniform(self) -> Optional[int]:
        if not self._vertices:
            return None
        return self._rng.choice(self._vertices)

    def sample_preferential(self) -> Optional[int]:
        if not self._pool:
            return None
        return self._rng.choice(self._pool)

    def reward(self, v: int) -> None:
        """Record one unit of degree for ``v`` (grows its pool share)."""
        self._pool.append(v)

    def __len__(self) -> int:
        return len(self._vertices)


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
    """
    rng = random.Random(seed)
    by_label = _allocate_labels(schema, num_vertices, rng)

    graph = LabelledGraph(name or schema.name)
    community_of: Dict[int, int] = {}
    for label, vertices in by_label.items():
        for v in vertices:
            graph.add_vertex(v, label)
            community_of[v] = rng.randrange(schema.communities)

    # Samplers per (label, community) and per label ("global").
    local: Dict[Tuple[str, int], _TargetSampler] = {}
    global_: Dict[str, _TargetSampler] = {}
    for label, vertices in by_label.items():
        global_[label] = _TargetSampler(vertices, rng)
        buckets: Dict[int, List[int]] = {}
        for v in vertices:
            buckets.setdefault(community_of[v], []).append(v)
        for community, members in buckets.items():
            local[(label, community)] = _TargetSampler(members, rng)

    def draw_target(rule: RelationRule, source: int) -> Optional[int]:
        use_local = schema.communities > 1 and rng.random() < rule.locality
        sampler = (
            local.get((rule.target, community_of[source])) if use_local else None
        ) or global_[rule.target]
        if rule.attachment == "preferential":
            return sampler.sample_preferential()
        return sampler.sample_uniform()

    for rule in schema.rules:
        sources = by_label[rule.source]
        for source in sources:
            count = int(rule.mean_degree)
            if rng.random() < rule.mean_degree - count:
                count += 1
            for _ in range(count):
                target = None
                for _attempt in range(8):  # skip self-loops / dups / capped hubs
                    candidate = draw_target(rule, source)
                    if candidate is None or candidate == source:
                        continue
                    if graph.has_edge(source, candidate):
                        continue
                    if (
                        rule.max_target_degree is not None
                        and graph.degree(candidate) >= rule.max_target_degree
                    ):
                        continue
                    target = candidate
                    break
                if target is None:
                    continue
                graph.add_edge(source, target)
                if rule.attachment == "preferential":
                    global_[rule.target].reward(target)
                    local_sampler = local.get((rule.target, community_of[target]))
                    if local_sampler is not None:
                        local_sampler.reward(target)

    # Isolated vertices never appear in an edge stream (streams carry edge
    # events), so no streaming partitioner could ever place them; drop them.
    for v in [v for v in graph.vertices() if graph.degree(v) == 0]:
        graph.remove_vertex(v)
    return graph


def realized_label_counts(graph: LabelledGraph) -> Dict[str, int]:
    """Label → vertex count (Table 1 reporting helper)."""
    return graph.label_counts()
