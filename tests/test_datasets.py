"""Tests for the schema generator, the four dataset stand-ins and Fig. 1."""

import hashlib

import pytest

from repro.datasets import dblp, lubm, musicbrainz, provgen
from repro.datasets.base import RelationRule, Schema, generate_graph, realized_label_counts
from repro.datasets.figure1 import figure1_graph, figure1_workload
from repro.datasets.registry import (
    IPT_DATASETS,
    available_datasets,
    dataset_spec,
    load_dataset,
)
from repro.query.isomorphism import count_embeddings


class TestSchemaValidation:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            RelationRule("a", "b", -1.0)
        with pytest.raises(ValueError):
            RelationRule("a", "b", 1.0, attachment="magnetic")
        with pytest.raises(ValueError):
            RelationRule("a", "b", 1.0, locality=1.5)
        with pytest.raises(ValueError):
            RelationRule("a", "b", 1.0, max_target_degree=0)

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            Schema("s", {})
        with pytest.raises(ValueError):
            Schema("s", {"a": -1.0})
        with pytest.raises(ValueError):
            Schema("s", {"a": 1.0}, rules=(RelationRule("a", "zzz", 1.0),))
        with pytest.raises(ValueError):
            Schema("s", {"a": 1.0}, communities=0)


class TestGenerateGraph:
    SCHEMA = Schema(
        "toy",
        {"a": 2.0, "b": 1.0},
        rules=(RelationRule("a", "b", 1.5, locality=0.5),),
        communities=4,
    )

    def test_deterministic(self):
        g1 = generate_graph(self.SCHEMA, 120, seed=5)
        g2 = generate_graph(self.SCHEMA, 120, seed=5)
        assert set(g1.edges()) == set(g2.edges())
        assert g1.labels() == g2.labels()

    def test_seed_changes_graph(self):
        g1 = generate_graph(self.SCHEMA, 120, seed=1)
        g2 = generate_graph(self.SCHEMA, 120, seed=2)
        assert set(g1.edges()) != set(g2.edges())

    def test_label_mix_roughly_matches_weights(self):
        g = generate_graph(self.SCHEMA, 300, seed=0)
        counts = realized_label_counts(g)
        assert counts["a"] > counts["b"]

    def test_no_isolated_vertices(self):
        g = generate_graph(self.SCHEMA, 200, seed=3)
        assert all(g.degree(v) > 0 for v in g.vertices())

    def test_simple_graph(self):
        g = generate_graph(self.SCHEMA, 200, seed=3)
        for u, v in g.edges():
            assert u != v

    def test_too_few_vertices_raises(self):
        with pytest.raises(ValueError):
            generate_graph(self.SCHEMA, 1, seed=0)

    def test_hub_cap_respected(self):
        capped = Schema(
            "capped",
            {"a": 10.0, "b": 1.0},
            rules=(
                RelationRule(
                    "a", "b", 1.0, attachment="preferential", max_target_degree=5
                ),
            ),
        )
        g = generate_graph(capped, 300, seed=0)
        for v in g.vertices_with_label("b"):
            assert g.degree(v) <= 5


#: A schema on the generator's other branches: one community (no locality
#: draw), preferential attachment without a degree cap, and a uniform
#: intra-label rule.
_FLAT_SCHEMA = Schema(
    "flat",
    {"a": 3.0, "b": 1.0},
    rules=(
        RelationRule("a", "b", 1.7, attachment="preferential", max_target_degree=None),
        RelationRule("a", "a", 0.6),
    ),
)

#: Graph → vertex count: the stream digests' grid (tests/test_stream.py)
#: plus the flat schema.
_GRAPH_SIZES = {
    "dblp": 400,
    "provgen": 400,
    "musicbrainz": 400,
    "lubm-100": 400,
    "lubm-4000": 900,
    "flat": 300,
}

#: SHA-256 (first 16 hex digits) of each generated graph's vertices in
#: order, with its label and its neighbour list in insertion order.  Key:
#: ``graph-seed``.  Taken before the generator's sampling loop was
#: inlined; never re-pin.
_GRAPH_DIGESTS = {
    "dblp-0": "a920c940d037362a",
    "dblp-1": "d4729a0948397317",
    "dblp-2": "da61cfcb18bf6af4",
    "flat-0": "59c0594ac666128f",
    "flat-1": "3022ad0ffa2d5d77",
    "flat-2": "ad9b2761613466ae",
    "lubm-100-0": "99460a171325f049",
    "lubm-100-1": "35918149e3ca0c82",
    "lubm-100-2": "67ef32594251f501",
    "lubm-4000-0": "2854c5c8ae27751b",
    "lubm-4000-1": "67e2fdb657b6f10b",
    "lubm-4000-2": "34a3b41c76f6741c",
    "musicbrainz-0": "4255755f1a66732b",
    "musicbrainz-1": "daa9a53a108b96c2",
    "musicbrainz-2": "b75397754071c382",
    "provgen-0": "ad120441d333e773",
    "provgen-1": "d0bbe2fb457d64f5",
    "provgen-2": "16fc6ee1172acf54",
}


def _graph_digest(name: str, seed: int) -> str:
    if name == "flat":
        graph = generate_graph(_FLAT_SCHEMA, _GRAPH_SIZES[name], seed=seed)
    else:
        graph = load_dataset(name, _GRAPH_SIZES[name], seed=seed).graph
    h = hashlib.sha256()
    for v in graph.vertices():
        h.update(repr((v, graph.label(v), list(graph.neighbors(v)))).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(_GRAPH_SIZES))
def test_generated_graph_digest(name, seed):
    """Every stream, partition and paper pin downstream is a function of
    these graphs: vertex order, labels and neighbour order must not move."""
    assert _graph_digest(name, seed) == _GRAPH_DIGESTS[f"{name}-{seed}"]


@pytest.mark.parametrize(
    "module,expected_labels",
    [
        (dblp, 8),
        (provgen, 3),
        (musicbrainz, 12),
        (lubm, 15),
    ],
)
class TestDatasetHeterogeneity:
    def test_label_alphabet_matches_table1(self, module, expected_labels):
        assert len(module.LABELS) == expected_labels
        assert len(module.schema().label_weights) == expected_labels

    def test_generated_graph_realises_alphabet(self, module, expected_labels):
        g = module.build_graph(800, seed=0)
        # Tiny graphs may drop a rare label's isolated vertices; the
        # alphabet must still be essentially complete.
        assert len(g.label_set()) >= expected_labels - 1

    def test_workload_labels_subset_of_schema(self, module, expected_labels):
        wl = module.build_workload()
        assert wl.label_set() <= set(module.LABELS)


class TestWorkloadMotifStructure:
    """Each canonical workload must yield multi-edge motifs at T = 40% —
    otherwise Loom degenerates to delayed single-edge placement."""

    @pytest.mark.parametrize("module", [dblp, provgen, musicbrainz, lubm])
    def test_multi_edge_motif_exists(self, module):
        from repro.core.motifs import MotifIndex
        from repro.core.tpstry import TPSTry

        trie = TPSTry.from_workload(module.build_workload())
        index = MotifIndex(trie, 0.4)
        assert index.max_motif_edges >= 2
        assert len(index.single_edge_motifs()) >= 1
        # And some query weight must stay below the threshold: the
        # workload-skew Loom exploits requires non-motif edge types too.
        assert index.num_motifs < trie.num_nodes

    @pytest.mark.parametrize("module", [dblp, provgen, musicbrainz, lubm])
    def test_workload_patterns_occur_in_generated_graph(self, module):
        g = module.build_graph(1200, seed=0)
        wl = module.build_workload()
        matched = sum(
            1 for e in wl if count_embeddings(g, e.pattern, limit=1) > 0
        )
        assert matched >= len(wl) - 1  # nearly every query has matches


class TestRegistry:
    def test_available(self):
        assert available_datasets() == [
            "dblp",
            "lubm-100",
            "lubm-4000",
            "musicbrainz",
            "provgen",
        ]

    def test_ipt_datasets_excludes_lubm_4000(self):
        assert "lubm-4000" not in IPT_DATASETS

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            dataset_spec("neo4j")

    def test_load_dataset(self):
        ds = load_dataset("provgen", 400, seed=1)
        assert ds.name == "provgen"
        assert ds.heterogeneity == 3
        assert ds.graph.num_vertices <= 400
        row = ds.stats_row()
        assert row["paper_vertices"] == 500_000
        assert row["labels"] == 3

    def test_default_sizes_used(self):
        spec = dataset_spec("dblp")
        assert spec.default_vertices == dblp.DEFAULT_VERTICES


class TestFigure1Example:
    def test_graph_shape(self):
        g = figure1_graph()
        assert g.num_vertices == 8
        assert g.num_edges == 8
        assert g.label_set() == {"a", "b", "c", "d"}

    def test_workload_frequencies(self):
        wl = figure1_workload()
        assert wl.frequencies() == pytest.approx(
            {"q1": 0.30, "q2": 0.60, "q3": 0.10}
        )
