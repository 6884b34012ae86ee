"""detlint's own test suite: every rule fires on its bad fixture and
stays silent on the good twin; pragmas behave; and — the
teeth — the shipped tree is finding-free.

The fixtures lint *virtual* paths (``lint_source`` scopes by the path
string, not the filesystem), so each rule is probed exactly where its
scope table says it patrols, plus once outside it to prove scoping works.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import config
from repro.analysis.engine import (
    all_rules,
    collect_pragmas,
    lint_paths,
    lint_source,
    rule_by_id,
    rule_applies,
)
from repro.analysis.__main__ import main as detlint_main

REPO_ROOT = Path(__file__).resolve().parents[1]

# ----------------------------------------------------------------------
# Per-rule fixtures: (virtual path, bad source, good source).
# Bad must raise at least one finding from the rule; good must raise none.
# ----------------------------------------------------------------------
FIXTURES = {
    "DET-repr": (
        "src/repro/core/mod.py",
        """
def order(vs, cache, d, u, v):
    vs.sort(key=repr)
    first = sorted(vs, key=lambda x: (len(x), str(x)))
    hit = cache.get(str(v))
    table = {repr(v): 1}
    probe = d[f"{u}"]
    return hit, table, probe, repr(u) <= repr(v), first
""",
        """
from typing import Dict, Optional


def order(vs, cache, d, u, v, rank):
    vs.sort(key=rank.__getitem__)
    labels: Dict[str, int] = {}
    name: Optional[str] = None
    if str(v) == "root":  # equality against a string stays legal
        labels["root"] = 1
    return sorted(vs), cache.get(v), d[u], name
""",
    ),
    "DET-setiter": (
        "src/repro/core/mod.py",
        """
def drain(extra):
    s = {1, 2, 3}
    out = []
    for x in s:
        out.append(x)
    listed = list(s)
    comped = [x for x in s]
    yield from s
    return out, listed, comped
""",
        """
from typing import Set


def drain(ekeys: Set[int]):
    s = {1, 2, 3}
    out = []
    for x in sorted(s):
        out.append(x)
    n = len(s)
    lo = min(s)
    ranked = sorted(x for x in s)
    for x in sorted(ekeys):
        out.append(x)
    members = {x for x in s}  # set-to-set stays unordered: legal
    return out, n, lo, ranked, members
""",
    ),
    "DET-random": (
        "src/repro/serving/mod.py",
        """
import random

import numpy as np
from random import shuffle


def jitter(xs):
    random.shuffle(xs)
    shuffle(xs)
    r = np.random.rand(3)
    rng = np.random.default_rng()
    return r, rng
""",
        """
import random

import numpy as np


def jitter(xs, seed):
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    rng.shuffle(xs)
    return nrng
""",
    ),
    "DET-time": (
        "src/repro/core/mod.py",
        """
import time
from datetime import datetime


def stamp():
    t = time.time()
    n = time.time_ns()
    d = datetime.now()
    return t, n, d
""",
        """
import time


def stamp():
    start = time.perf_counter()
    mono = time.monotonic()
    return time.perf_counter() - start, mono
""",
    ),
    "FLT-accum": (
        "src/repro/partitioning/mod.py",
        """
def score(weights_list):
    weights = {0.5, 0.25, 0.125}
    direct = sum(weights)
    via_gen = sum(w * 2.0 for w in weights)
    return direct + via_gen
""",
        """
def score(weights_list):
    weights = {0.5, 0.25, 0.125}
    pinned = sum(sorted(weights))
    listed = sum(weights_list)
    return pinned + listed
""",
    ),
    "MP-pickle": (
        "src/repro/runtime/mod.py",
        """
from multiprocessing import Process


class NotWire:
    pass


def ship(q):
    q.put(lambda: 1)
    q.put(NotWire())

    def inner():
        pass

    q.put(inner)
    p = Process(target=inner)
    p2 = Process(target=lambda: None)
    return p, p2
""",
        """
from multiprocessing import Process

from repro.runtime.messages import StatsRequest


def work():
    pass


def ship(q, request: StatsRequest):
    q.put(request)
    q.put(StatsRequest(*()))
    q.put((1, "ok", [2, 3]))
    p = Process(target=work)
    return p
""",
    ),
    "INT-boundary": (
        "src/repro/core/mod.py",
        """
from typing import Dict

from repro.graph.interning import Vertex

cache: Dict[Vertex, int] = {}


def probe(v: Vertex, d):
    label = v.label
    return d[v], label
""",
        """
from typing import Dict

from repro.graph.interning import Vertex

by_id: Dict[int, int] = {}


def probe(v: Vertex, interner, d):
    vid = interner.intern(v)
    return d[vid]
""",
    ),
}


def _rules_fired(path, source, rule_id):
    result = lint_source(source, path, rules=[rule_by_id(rule_id)])
    assert result.error == "", result.error
    return result.findings


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_rule_fires_on_bad_fixture(rule_id):
    path, bad, _good = FIXTURES[rule_id]
    findings = _rules_fired(path, bad, rule_id)
    assert findings, f"{rule_id} stayed silent on its bad fixture"
    assert all(f.rule == rule_id for f in findings)
    for f in findings:
        assert f.line > 0 and f.col > 0
        assert f.message
        assert f.format_text().startswith(f"{path}:{f.line}:{f.col}: {rule_id}:")


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_rule_silent_on_good_fixture(rule_id):
    path, _bad, good = FIXTURES[rule_id]
    findings = _rules_fired(path, good, rule_id)
    assert findings == [], [f.format_text() for f in findings]


def test_every_registered_rule_has_a_fixture_and_scope():
    registered = {cls.rule_id for cls in all_rules()}
    assert len(registered) >= 7
    assert registered == set(FIXTURES), "every rule needs bad/good fixtures here"
    assert registered <= set(config.RULE_SCOPES), "every rule needs a scope entry"


def test_setiter_knows_neighbors_is_a_list():
    # A graph's adjacency is an insertion-ordered list; its label set is a set.
    src = """
def walk(graph, v):
    out = [w for w in graph.neighbors(v)]
    for label in graph.label_set():
        out.append(label)
    return out
"""
    findings = _rules_fired("src/repro/core/mod.py", src, "DET-setiter")
    assert [f.line for f in findings] == [4]


def test_bad_fixture_counts_are_meaningful():
    # The DET-repr bad fixture exercises every checked position.
    path, bad, _ = FIXTURES["DET-repr"]
    findings = _rules_fired(path, bad, "DET-repr")
    assert len(findings) >= 5


# ----------------------------------------------------------------------
# Scoping
# ----------------------------------------------------------------------
def test_rules_do_not_fire_outside_their_scope():
    _path, bad, _good = FIXTURES["DET-repr"]
    result = lint_source(bad, "src/repro/datasets/mod.py", rules=[rule_by_id("DET-repr")])
    assert result.findings == []


def test_exempt_paths_stay_exempt():
    _path, bad, _good = FIXTURES["DET-random"]
    for exempt in ("benchmarks/bench_x.py", "src/repro/bench/mod.py"):
        result = lint_source(bad, exempt, rules=[rule_by_id("DET-random")])
        assert result.findings == [], exempt
    path, bad, _good = FIXTURES["DET-time"]
    result = lint_source(bad, "benchmarks/bench_x.py", rules=[rule_by_id("DET-time")])
    assert result.findings == []
    # The traffic driver measures with monotonic timers only and has no
    # exemption: a wall-clock read there is flagged as anywhere else.
    result = lint_source(bad, "src/repro/serving/traffic.py", rules=[rule_by_id("DET-time")])
    expected = lint_source(bad, path, rules=[rule_by_id("DET-time")]).findings
    assert expected
    assert [f.line for f in result.findings] == [f.line for f in expected]


def test_rule_applies_matches_absolute_paths_too():
    assert rule_applies("DET-repr", "src/repro/core/loom.py")
    assert rule_applies("DET-repr", "/abs/checkout/src/repro/core/loom.py")
    assert not rule_applies("DET-repr", "src/repro/datasets/zoo.py")
    assert not rule_applies("NO-such-rule", "src/repro/core/loom.py")


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
def test_line_pragma_suppresses_and_is_counted():
    src = "s = {1, 2}\nout = list(s)  # detlint: disable=DET-setiter (proved order-free)\n"
    result = lint_source(src, "src/repro/core/mod.py", rules=[rule_by_id("DET-setiter")])
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["DET-setiter"]


def test_pragma_on_another_line_does_not_suppress():
    src = "# detlint: disable=DET-setiter\ns = {1, 2}\nout = list(s)\n"
    result = lint_source(src, "src/repro/core/mod.py", rules=[rule_by_id("DET-setiter")])
    assert [f.rule for f in result.findings] == ["DET-setiter"]


def test_file_pragma_and_all_keyword():
    src = "# detlint: disable-file=DET-setiter\ns = {1, 2}\nout = list(s)\nmore = list(s)\n"
    result = lint_source(src, "src/repro/core/mod.py", rules=[rule_by_id("DET-setiter")])
    assert result.findings == []
    assert len(result.suppressed) == 2

    src = "s = {1, 2}\nout = list(s)  # detlint: disable=all\n"
    result = lint_source(src, "src/repro/core/mod.py", rules=[rule_by_id("DET-setiter")])
    assert result.findings == [] and len(result.suppressed) == 1


def test_pragma_parser_handles_lists_and_justifications():
    line_disables, file_disables = collect_pragmas(
        "x = 1  # detlint: disable=DET-repr, DET-setiter (both justified here)\n"
        "# detlint: disable-file=DET-time\n"
        's = "# detlint: disable=MP-pickle inside a string is ignored"\n'
    )
    assert line_disables == {1: {"DET-repr", "DET-setiter"}}
    assert file_disables == {"DET-time"}


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
def test_syntax_error_is_reported_not_raised():
    result = lint_source("def broken(:\n", "src/repro/core/mod.py")
    assert result.error and "syntax error" in result.error
    assert result.findings == []


def test_findings_are_sorted_deterministically():
    path, bad, _good = FIXTURES["DET-repr"]
    result = lint_source(bad, path)
    keys = [f.sort_key for f in result.findings]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _write(tmp_path, name, text):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    return target


def test_cli_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path, "src/repro/core/mod.py", FIXTURES["DET-repr"][1])
    good = _write(tmp_path, "src/repro/core/ok.py", FIXTURES["DET-repr"][2])
    broken = _write(tmp_path, "src/repro/core/broken.py", "def broken(:\n")

    assert detlint_main([str(good)]) == 0
    assert detlint_main([str(bad)]) == 1
    assert detlint_main([str(broken)]) == 2
    capsys.readouterr()


def test_cli_json_report(tmp_path, capsys):
    bad = _write(tmp_path, "src/repro/core/mod.py", FIXTURES["DET-repr"][1])
    report_file = tmp_path / "report.json"

    assert detlint_main([str(bad), "--json-report", str(report_file)]) == 1
    payload = json.loads(report_file.read_text(encoding="utf-8"))
    assert payload["schema_version"] == 2
    assert payload["ok"] is False
    assert payload["counts"] == {"findings": 7, "suppressed": 0, "errors": 0}
    assert all(f["rule"] == "DET-repr" for f in payload["findings"])
    assert "grandfathered" not in payload
    capsys.readouterr()


def test_cli_rule_filter_and_list_rules(capsys):
    assert detlint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for cls in all_rules():
        assert cls.rule_id in out
    assert detlint_main(["--rule", "NO-such", "nowhere"]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# The teeth: the shipped tree is finding-free.
# ----------------------------------------------------------------------
def test_shipped_tree_is_finding_free():
    report = lint_paths([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
    details = [f.format_text() for f in report.findings] + report.errors
    assert report.ok, details
    assert report.files_checked > 100
    # Every suppression in the tree is a deliberate, justified pragma —
    # if this count drifts, a pragma was added or removed: re-audit.
    assert len(report.suppressed) == 6, [f.format_text() for f in report.suppressed]
