"""detlint — the repo's AST-based determinism & invariant linter.

Loom's reproduction guarantees (bit-identical placements, digests and
counters across runs, shards and processes) rest on invariants that unit
tests only catch probabilistically: no string orderings on hot paths
(PR 2), nothing unpicklable across worker queues (PR 4), no raw vertex
objects below the interning boundary (PR 1).  detlint makes those
invariants static: 7 AST rules (:mod:`repro.analysis.rules`), scoped per layer in
:mod:`repro.analysis.config`, runnable as::

    python -m repro.analysis [paths...]

with text or JSON output and ``# detlint: disable=RULE`` pragmas, the
one way to suppress a finding.  CI runs it strict beside ruff.  See
ARCHITECTURE.md "Static invariants".
"""

from repro.analysis.engine import (  # noqa: F401
    Finding,
    Report,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    register_rule,
    rule_applies,
)
