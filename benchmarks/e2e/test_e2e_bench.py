"""Self-test of the e2e benchmark at reduced sizes (``pytest benchmarks/e2e -q``)."""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import e2e_agree
import e2e_layers
import e2e_workloads as workloads
import run
from repro.runtime.live import LiveCluster

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = run.load_spec()
TINY = {
    name: workloads.Workload(name, w.shape, w.system, 1_500, w.cache, w.zipf, 40, 100.0)
    for name, w in workloads.WORKLOADS.items()
}


def test_spec_names_are_well_formed_and_match_the_code():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 <= bound <= 0.15 for bound in bounds.values())
    assert bounds["wipt_vs_hash"] == 0 and bounds["hops_per_query"] == 0


@pytest.mark.parametrize("name", list(TINY))
def test_every_workload_reports_every_end_to_end_metric(name):
    result = workloads.run_end_to_end(TINY[name], seed=0, seconds=1)
    assert result["failures"] == [] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in result["metrics"].values())
    assert workloads.reap_stray_servers() == 0


@pytest.mark.parametrize("name", ["ingest-ldg", "mixed-live"])
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    trace = tmp_path / "trace.jsonl"
    result = e2e_layers.run_traced(TINY[name], seed=0, trace_path=trace)
    assert result["failures"] == []
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["bench.span_coverage"] >= 0.95
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    trial = next(s for s in spans if s["name"] == "bench.trial")
    children = [s for s in spans if s["parent"] == trial["id"]]
    assert children and all(trial["start"] <= s["start"] <= s["end"] <= trial["end"] for s in children)


def test_exact_counts_repeat_and_inputs_change_with_the_seed():
    wl = TINY["mixed-live"]
    first = workloads.run_end_to_end(wl, seed=3, seconds=1)
    again = workloads.run_end_to_end(wl, seed=3, seconds=1)
    other = workloads.run_end_to_end(wl, seed=4, seconds=1)
    for name in ("wipt_vs_hash", "hops_per_query"):  # bound 0: the same under every seed
        assert first["metrics"][name] == again["metrics"][name] == other["metrics"][name]
    assert first["attempted"] == again["attempted"] == other["attempted"]
    a, same, b = (workloads.Bench(wl, seed).request_pool() for seed in (3, 3, 4))
    assert a == same and a != b
    assert [sorted(burst) for burst in a] == [sorted(burst) for burst in b]


def test_a_raising_request_is_counted_and_fails_the_command(monkeypatch, capsys):
    calls = {"n": 0}
    real = LiveCluster.serve_root

    def flaky(self, query, root):
        calls["n"] += 1
        if calls["n"] % 50 == 0:
            raise RuntimeError("injected")
        return real(self, query, root)

    monkeypatch.setattr(LiveCluster, "serve_root", flaky)
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    status = run.main(["--workload", "serve-live", "--seed", "0", "--seconds", "1", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert last["correct"] is False and 0 < last["failed"] < last["attempted"]
    assert workloads.reap_stray_servers() == 0


def test_a_trial_past_its_deadline_is_a_failure_not_a_hang(monkeypatch):
    monkeypatch.setattr(workloads, "TRIAL_TIMEOUT_S", 0.05)
    trial = workloads.Bench(TINY["serve-live"], 0).trial()
    assert "TrialTimeout" in trial.error and trial.failed > 0
    workloads.reap_stray_servers()  # a boot cut short has no cluster to close
    assert workloads.reap_stray_servers() == 0


def _result_set():
    metrics = {m["name"]: {"value": 10.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    runs = [
        {"seed": s, "correct": True, "attempted": 9, "failed": 0, "metrics": copy.deepcopy(metrics)}
        for s in range(3)
    ]
    return {
        "env": e2e_agree.environment(),
        "sizes": workloads.sizes(),
        "seeds": [0, 1, 2],
        "seconds": 12.0,
        "trace": 0,
        "runs": {"serve-live": runs},
    }


def test_agree_passes_a_copy_and_names_an_injected_slowdown(tmp_path, capsys):
    a = _result_set()
    slowed = 10.0 * 1.20  # a 20% slowdown: past every timing bound
    paths = {}
    for label, edit in (
        ("a", lambda s: None),
        ("copy", lambda s: None),
        ("slow", lambda s: [r["metrics"]["setup_s"].update(value=slowed) for r in s["runs"]["serve-live"]]),
        ("inexact", lambda s: s["runs"]["serve-live"][1]["metrics"]["wipt_vs_hash"].update(value=10.000001)),
        ("cpus", lambda s: s["env"].update(cpus=64)),
    ):
        variant = copy.deepcopy(a)
        edit(variant)
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(variant))
    assert e2e_agree.agree(paths["a"], paths["copy"], SPEC) == 0
    capsys.readouterr()
    assert e2e_agree.agree(paths["a"], paths["slow"], SPEC) == 1
    assert "setup_s on serve-live" in capsys.readouterr().err
    assert e2e_agree.agree(paths["a"], paths["inexact"], SPEC) == 1
    assert "wipt_vs_hash on serve-live seed 1" in capsys.readouterr().err
    assert e2e_agree.agree(paths["a"], paths["cpus"], SPEC) == 2
