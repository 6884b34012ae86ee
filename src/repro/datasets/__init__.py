"""Synthetic stand-ins for the paper's evaluation datasets (Table 1).

The paper evaluates over DBLP, ProvGen, MusicBrainz and two LUBM scales.
Real dumps are unavailable offline, so each dataset is regenerated by a
schema-driven synthesizer that preserves what the partitioners and the
matcher actually observe: the label alphabet (heterogeneity ``|LV|``), the
relation structure between labels (so workload patterns occur), degree skew
and community locality.  Sizes are scaled to laptop scale; ``python -m
repro.bench table1`` prints the generated sizes beside the paper's.

Use :func:`repro.datasets.registry.load_dataset` (or the convenience
re-export here) to obtain a :class:`~repro.datasets.registry.Dataset`
bundling the graph with its canonical query workload.
"""

from repro.datasets.base import RelationRule, Schema, generate_graph
from repro.datasets.figure1 import figure1_graph, figure1_workload
from repro.datasets.registry import Dataset, available_datasets, load_dataset

__all__ = [
    "Dataset",
    "RelationRule",
    "Schema",
    "available_datasets",
    "figure1_graph",
    "figure1_workload",
    "generate_graph",
    "load_dataset",
]
