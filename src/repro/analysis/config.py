"""Scope configuration for detlint — which modules each rule patrols.

The rules in :mod:`repro.analysis.rules` encode invariants that are only
*mandatory* on specific layers (a ``repr()`` in an offline report is fine;
in a sort key on the ingest path it is the PR 2 nondeterminism bug).  This
module is the single place those layers are declared, so a new subsystem
opts into enforcement by adding its path here — not by every rule growing
its own ad-hoc path test.

Patterns are :mod:`fnmatch` globs matched against the linted file's
path as given on the command line, normalised to posix separators.  A
pattern ``P`` matches a path if ``fnmatch(path, P)`` or
``fnmatch(path, "*/" + P)`` — so ``src/repro/core/*`` works whether the
tool was invoked from the repo root (``src/repro/core/loom.py``) or with
an absolute path.

How to scope a new module
-------------------------
* Ingest hot path (placements/matches must be bit-stable)?  Add it to
  :data:`HOT_PATH_MODULES` (DET-repr) and, if it iterates collections
  into ordered results, :data:`ORDERING_SENSITIVE_MODULES` (DET-setiter).
* Accumulates floats whose order affects the result?  Add it to
  :data:`FP_ACCUM_MODULES` (FLT-accum).
* Crosses the process boundary?  :data:`MP_PICKLE_MODULES`.
* Lives below the interning boundary?  :data:`INT_BOUNDARY_MODULES`.

DET-random and DET-time apply *everywhere* by default and instead list
exemptions (benchmarks may read clocks and roll dice; nothing else may).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Paths linted when `python -m repro.analysis` is invoked with none.
DEFAULT_PATHS: Tuple[str, ...] = ("src", "tests", "benchmarks", "examples")

#: Directory names never descended into by the file walker.
SKIP_DIRS: Tuple[str, ...] = ("__pycache__", ".git", ".ruff_cache", ".pytest_cache")

#: Modules where placement/match decisions are made: a string/identity
#: ordering here is the PR 2 bug class (address-based default reprs made
#: stream orderings and auction tie-breaks vary across runs).
HOT_PATH_MODULES: Tuple[str, ...] = (
    "src/repro/core/*",
    "src/repro/partitioning/*",
    "src/repro/runtime/*",
    "src/repro/serving/*",
    "src/repro/graph/stream.py",
    "src/repro/graph/interning.py",
    "src/repro/graph/labelled_graph.py",
    "src/repro/query/isomorphism.py",
    "src/repro/query/executor.py",
)

#: Modules whose outputs are ordered (assignment vectors, match lists,
#: routed sub-queries): iterating a set into them needs a sorted() wrapper.
ORDERING_SENSITIVE_MODULES: Tuple[str, ...] = (
    "src/repro/core/*",
    "src/repro/partitioning/*",
    "src/repro/runtime/*",
    "src/repro/serving/*",
    # The experiment service: matrix expansion order and trial ids must be
    # identical on every machine (resume keys on them), so set iteration
    # may not leak into anything it emits.
    "src/repro/experiment/*",
    # The observability layer: snapshots, trace exports and stats lines
    # are compared byte-for-byte by the double-run suite
    # (tests/test_obs_determinism.py), so every emitted ordering must be
    # sorted or insertion-stable — hash order may not leak into them.
    "src/repro/obs/*",
)

#: Float-accumulation paths: Loom's auction (support-weighted utilities,
#: prefix-sum accumulation with pinned term grouping) and the partition
#: quality metrics.  sum() over an unordered collection here changes the
#: result bit pattern run to run.
FP_ACCUM_MODULES: Tuple[str, ...] = (
    "src/repro/core/allocation.py",
    "src/repro/core/collision.py",
    "src/repro/core/matching.py",
    "src/repro/partitioning/*",
)

#: The process boundary: only wire types from runtime/messages.py, ids and
#: primitives may cross it (PR 4's deadlock class: an unpicklable payload
#: kills the sender mid-put and its peer hangs).
MP_PICKLE_MODULES: Tuple[str, ...] = ("src/repro/runtime/*",)

#: Below the interning boundary vertices are dense ints; keying a dict by
#: (or attribute-probing) a raw vertex object reintroduces the object
#: hashing/identity semantics PR 1 removed.
INT_BOUNDARY_MODULES: Tuple[str, ...] = ("src/repro/core/*",)

#: The only places allowed to roll unseeded dice.
RANDOM_EXEMPT: Tuple[str, ...] = (
    "src/repro/bench/*",
    "benchmarks/*",
)

#: The only places allowed to read clocks that feed results: benchmarks
#: (that is the point) and the closed-loop traffic driver (simulated
#: latency).  Monotonic timers (time.perf_counter / time.monotonic /
#: time.monotonic_ns) are exempt everywhere — they measure, they never
#: decide placements.  repro.obs leans on exactly that carve-out: trace
#: timestamps and latency observations are monotonic-only, which is what
#: keeps traces comparable modulo their ``ts`` field — the package needs
#: no entry in this tuple and must not gain one.
TIME_EXEMPT: Tuple[str, ...] = (
    "src/repro/bench/*",
    "benchmarks/*",
    "src/repro/serving/traffic.py",
    # The experiment runner stamps DB rows (created_at) and times trials;
    # wall clocks never reach a result metric.  It stays under DET-random:
    # per-trial seeds are derived from the spec via SHA-256, never rolled.
    "src/repro/experiment/*",
)

#: Method names known to return sets in this codebase (a graph's or
#: workload's ``label_set``, a partition's ``members``).  Iterating their
#: result feeds hash order into whatever consumes it.
SET_RETURNING_METHODS = frozenset({"label_set", "members"})

#: Type names that denote raw (pre-interning) vertex objects.
RAW_VERTEX_TYPES = frozenset({"Vertex"})


@dataclass(frozen=True)
class Scope:
    """Include/exclude glob pair for one rule."""

    include: Tuple[str, ...] = ("*",)
    exclude: Tuple[str, ...] = ()


#: Rule id → where it patrols.  Rules missing from this table run nowhere
#: (a typo'd id is inert, not global).
RULE_SCOPES: Dict[str, Scope] = {
    "DET-repr": Scope(include=HOT_PATH_MODULES),
    "DET-setiter": Scope(include=ORDERING_SENSITIVE_MODULES),
    "DET-random": Scope(include=("*",), exclude=RANDOM_EXEMPT),
    "DET-time": Scope(include=("*",), exclude=TIME_EXEMPT),
    "FLT-accum": Scope(include=FP_ACCUM_MODULES),
    "MP-pickle": Scope(include=MP_PICKLE_MODULES),
    "INT-boundary": Scope(include=INT_BOUNDARY_MODULES),
}
