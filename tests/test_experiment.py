"""The experiment service: spec expansion, runner, results DB, gate.

Covers the runner contract end to end: deterministic matrix expansion,
resume-skips-completed-trials, failed-trial isolation (a crashing trial
records a failed row and the run continues), the append-only SQLite
round-trip, and a reduced-scale run of real trials in parallel workers.
The gate tests pin its one rule — a gated trial that failed or has no
row fails it, nothing else does — and that a spec stored by an earlier
version of the service still loads.
"""

import json
from pathlib import Path

import pytest

from repro.experiment import (
    ExperimentSpec,
    ResultsDB,
    get_trial,
    run_experiment,
)
from repro.experiment.db import flatten_metrics
from repro.experiment.gate import gate_experiment, load_spec_for_gate
from repro.experiment.registry import TrialContext, load_trial_modules
from repro.experiment.spec import SpecError, derive_seed, load_spec
from repro.experiment.trials import paper_trial

REPO = Path(__file__).resolve().parent.parent


def synthetic_spec(trials, name="synthetic-test", seed=0):
    return ExperimentSpec.from_mapping(
        {"experiment": {"name": name, "seed": seed}, "trial": trials}
    )


class TestSpecExpansion:
    def test_matrix_times_repeats(self):
        spec = synthetic_spec(
            [
                {
                    "bench": "synthetic",
                    "repeats": 2,
                    "matrix": {"k": [2, 3], "window": [10]},
                }
            ]
        )
        assert [t.trial_id for t in spec.trials] == [
            "synthetic[k=2,window=10]#r1",
            "synthetic[k=2,window=10]#r2",
            "synthetic[k=3,window=10]#r1",
            "synthetic[k=3,window=10]#r2",
        ]
        # Repeats of one group share params and seed (same workload,
        # independent timings).
        first, second = spec.trials[0], spec.trials[1]
        assert first.group == second.group
        assert first.seed == second.seed
        assert first.params == {"k": 2, "window": 10}

    def test_expansion_is_deterministic(self):
        table = {
            "bench": "synthetic",
            "repeats": 3,
            "matrix": {"k": [2, 3, 4], "cache": [True, False]},
        }
        a = synthetic_spec([table])
        b = synthetic_spec([table])
        assert [(t.trial_id, t.seed) for t in a.trials] == [
            (t.trial_id, t.seed) for t in b.trials
        ]
        assert a.spec_hash == b.spec_hash

    def test_seeds_derive_from_group_not_rng(self):
        spec = synthetic_spec([{"bench": "synthetic", "matrix": {"k": [2, 3]}}])
        seeds = {t.trial_id: t.seed for t in spec.trials}
        assert seeds["synthetic[k=2]"] == derive_seed(0, "synthetic[k=2]")
        assert seeds["synthetic[k=2]"] != seeds["synthetic[k=3]"]

    def test_explicit_seed_wins(self):
        spec = synthetic_spec([{"bench": "synthetic", "params": {"seed": 7}}])
        assert spec.trials[0].seed == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown key"):
            synthetic_spec([{"bench": "synthetic", "threads": 4}])

    def test_duplicate_trial_id_rejected(self):
        with pytest.raises(SpecError, match="duplicate trial id"):
            synthetic_spec([{"bench": "synthetic"}, {"bench": "synthetic"}])

    def test_json_round_trip(self):
        spec = synthetic_spec(
            [
                {
                    "bench": "synthetic",
                    "matrix": {"k": [2, 3]},
                    "gate": {"enabled": False},
                }
            ]
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.spec_hash == spec.spec_hash

    def test_committed_specs_parse(self):
        paths = sorted((REPO / "experiments").glob("*.toml"))
        assert paths, "no committed spec found"
        for path in paths:
            spec, modules = load_spec(path)
            assert spec.trials, path.name
            assert all(Path(m).exists() for m in modules if m.endswith(".py")), path.name
            # Every bench has a producer; every baseline is a file of this
            # repo (CI runs specs from its root, where relative paths resolve).
            load_trial_modules(modules)
            for trial in spec.trials:
                get_trial(trial.bench)  # raises on a bench nothing registers
                baseline = trial.params.get("baseline")
                if baseline is not None:
                    assert (REPO / baseline).is_file(), (path.name, baseline)

    def test_removed_gate_keys_load_from_a_db_but_not_from_a_spec(self):
        """results.db is append-only: a spec stored while the ratio gate
        existed must still load; a spec *file* that sets its keys must fail
        loudly rather than run un-gated."""
        spec = synthetic_spec([{"bench": "synthetic"}])
        stored = json.loads(spec.to_json())
        stored["trials"][0]["gate"].update(threshold=0.6, strict=True)
        assert ExperimentSpec.from_json(json.dumps(stored)) == spec
        for key in ("threshold", "strict"):
            with pytest.raises(SpecError, match=f"unknown gate key.*{key}"):
                synthetic_spec([{"bench": "synthetic", "gate": {key: 1}}])


class TestResultsDB:
    def test_trial_metrics_round_trip(self, tmp_path):
        with ResultsDB(tmp_path / "r.db") as db:
            exp = db.ensure_experiment("t", "hash", "{}")
            row = db.record_trial(
                exp,
                trial_id="a",
                bench="synthetic",
                params={"k": 2},
                seed=5,
                status="ok",
                duration_seconds=0.5,
                metrics={"edges_per_sec": 10.5, "note": "text", "flag": 1.0},
            )
            metrics = db.metrics_for(row)
            assert metrics == {"edges_per_sec": 10.5, "note": "text", "flag": 1.0}
            trial = db.latest_trials(exp)[0]
            assert json.loads(trial["params_json"]) == {"k": 2}
            assert trial["seed"] == 5

    def test_append_only_latest_row_wins(self, tmp_path):
        with ResultsDB(tmp_path / "r.db") as db:
            exp = db.ensure_experiment("t", "hash", "{}")
            db.record_trial(
                exp,
                trial_id="a",
                bench="synthetic",
                params={},
                seed=0,
                status="failed",
                duration_seconds=0.0,
                metrics={},
                traceback_text="boom",
            )
            assert db.completed_trial_ids(exp) == set()
            db.record_trial(
                exp,
                trial_id="a",
                bench="synthetic",
                params={},
                seed=0,
                status="ok",
                duration_seconds=0.1,
                metrics={},
            )
            assert db.completed_trial_ids(exp) == {"a"}
            rows = db.latest_trials(exp)
            assert len(rows) == 1 and rows[0]["status"] == "ok"

    def test_experiment_reused_for_same_spec_hash(self, tmp_path):
        with ResultsDB(tmp_path / "r.db") as db:
            first = db.ensure_experiment("t", "hash", "{}")
            assert db.ensure_experiment("t", "hash", "{}") == first
            assert db.ensure_experiment("t", "hash2", "{}") != first

    def test_flatten_metrics_shapes(self):
        flat = flatten_metrics(
            {
                "loom": {"s1": {"rate": 10, "ok": True}},
                "note": "hi",
                "seq": [1, 2],
                "skip": None,
            }
        )
        assert flat == {
            "loom.s1.rate": 10.0,
            "loom.s1.ok": 1.0,
            "note": "hi",
            "seq": "[1, 2]",
        }


class TestRunner:
    def test_synthetic_run_and_resume(self, tmp_path):
        spec = synthetic_spec(
            [{"bench": "synthetic", "repeats": 2, "matrix": {"k": [2, 3]}}]
        )
        db_path = str(tmp_path / "r.db")
        first = run_experiment(spec, db_path, workers=1, echo=lambda _: None)
        assert (first.executed, first.skipped, first.failed) == (4, 0, 0)
        # Resume: every trial's latest row is ok, so nothing reruns.
        second = run_experiment(spec, db_path, workers=1, echo=lambda _: None)
        assert (second.executed, second.skipped, second.failed) == (0, 4, 0)
        with ResultsDB(db_path) as db:
            rows = db.latest_trials(first.experiment_id)
            assert len(rows) == 4
            for row in rows:
                metrics = db.metrics_for(row["id"])
                assert metrics["seed"] == float(row["seed"])

    def test_failed_trial_isolation(self, tmp_path):
        spec = synthetic_spec(
            [
                {"bench": "synthetic", "id": "boom", "params": {"fail": True}},
                {"bench": "synthetic", "id": "fine"},
            ]
        )
        db_path = str(tmp_path / "r.db")
        summary = run_experiment(spec, db_path, workers=1, echo=lambda _: None)
        # The crash is one failed row; the run continued to the next trial.
        assert (summary.executed, summary.failed) == (2, 1)
        with ResultsDB(db_path) as db:
            rows = {r["trial_id"]: r for r in db.latest_trials(summary.experiment_id)}
            assert rows["fine"]["status"] == "ok"
            assert rows["boom"]["status"] == "failed"
            assert "asked to fail" in rows["boom"]["traceback"]
            # A failed trial fails the gate with a nonzero exit.
            assert gate_experiment(db, spec, echo=lambda _: None) == 1
        # Rerunning retries the failure (it is not in the resume skip set).
        retry = run_experiment(spec, db_path, workers=1, echo=lambda _: None)
        assert (retry.executed, retry.skipped, retry.failed) == (1, 1, 1)

    def test_parallel_workers(self, tmp_path):
        spec = synthetic_spec(
            [{"bench": "synthetic", "matrix": {"k": [1, 2, 3, 4]}}]
        )
        summary = run_experiment(
            spec, str(tmp_path / "r.db"), workers=2, echo=lambda _: None
        )
        assert (summary.executed, summary.failed) == (4, 0)

    def test_parallel_failed_trial_isolation(self, tmp_path):
        spec = synthetic_spec(
            [
                {"bench": "synthetic", "id": "boom", "params": {"fail": True}},
                {"bench": "synthetic", "id": "fine-1"},
                {"bench": "synthetic", "id": "fine-2"},
            ]
        )
        db_path = str(tmp_path / "r.db")
        summary = run_experiment(spec, db_path, workers=2, echo=lambda _: None)
        assert (summary.executed, summary.failed) == (3, 1)
        with ResultsDB(db_path) as db:
            rows = {r["trial_id"]: r for r in db.latest_trials(summary.experiment_id)}
            assert rows["boom"]["status"] == "failed"
            assert rows["fine-1"]["status"] == "ok"
            assert rows["fine-2"]["status"] == "ok"

    def test_spec_workers_pin_respected(self, tmp_path):
        spec = ExperimentSpec.from_mapping(
            {
                "experiment": {"name": "pin", "workers": 1},
                "trial": [{"bench": "synthetic"}],
            }
        )
        assert spec.workers == 1
        summary = run_experiment(spec, str(tmp_path / "r.db"), echo=lambda _: None)
        assert summary.ok


class TestGateOnCommittedBaselines:
    """``experiment gate``'s one rule.  (The class name is history — it
    replayed the committed bench payloads through the ratio gate until
    both were removed — kept so the surviving test keeps its id.)"""

    BOOM = {"bench": "synthetic", "id": "boom", "params": {"fail": True}}
    FINE = {"bench": "synthetic", "id": "fine"}

    def gate(self, db_path, spec):
        lines = []
        with ResultsDB(db_path) as db:
            return gate_experiment(db, spec, echo=lines.append), "\n".join(lines)

    def test_never_run_or_failed_trial_fails(self, tmp_path):
        db_path = str(tmp_path / "r.db")
        spec = synthetic_spec([self.FINE], name="gate")
        assert self.gate(db_path, spec)[0] == 1  # no experiment of that name yet
        run_experiment(spec, db_path, workers=1, echo=lambda _: None)
        spec = synthetic_spec([self.FINE, self.BOOM], name="gate")
        code, out = self.gate(db_path, spec)
        assert code == 1 and "boom: no result row" in out and "fine:" not in out
        run_experiment(spec, db_path, workers=1, echo=lambda _: None)
        code, out = self.gate(db_path, spec)
        assert code == 1
        assert "boom: trial FAILED — RuntimeError: synthetic trial boom asked to fail" in out

    def test_disabled_gate_exempts_a_failed_trial(self, tmp_path):
        db_path = str(tmp_path / "r.db")
        spec = synthetic_spec([self.FINE, dict(self.BOOM, gate={"enabled": False})])
        run_experiment(spec, db_path, workers=1, echo=lambda _: None)
        code, out = self.gate(db_path, spec)
        assert code == 0 and "boom" not in out and "gate passed" in out

    def test_gate_spec_from_db_json(self, tmp_path):
        """`gate --db results.db` alone: the spec comes back out of the DB."""
        db_path = str(tmp_path / "r.db")
        spec = synthetic_spec([self.FINE, {"bench": "synthetic", "matrix": {"k": [2, 3]}}])
        run_experiment(spec, db_path, workers=1, echo=lambda _: None)
        with ResultsDB(db_path) as db:
            recovered = load_spec_for_gate(db)
            assert recovered == spec
            assert gate_experiment(db, recovered, echo=lambda _: None) == 0


class TestEndToEndBenchTrials:
    def test_reduced_scale_spec_run(self, tmp_path):
        """Real trials — a script-registered one (obs-overhead, through
        ``trial_modules``) and a built-in one (a paper figure) — through
        parallel workers, persisted to SQLite, and gated."""
        spec = ExperimentSpec.from_mapping(
            {
                "experiment": {
                    "name": "e2e-smoke",
                    "seed": 0,
                    "trial_modules": [str(REPO / "benchmarks" / "bench_obs_overhead.py")],
                },
                "trial": [
                    {
                        "bench": "obs-overhead",
                        "params": {
                            "vertices": 300,
                            "edges": 1800,
                            "window": 300,
                            "requests": 300,
                            "repeats": 1,
                            "seed": 0,
                        },
                    },
                    {"bench": "paper", "matrix": {"experiment": ["figure4"]}},
                ],
            }
        )
        db_path = str(tmp_path / "r.db")
        summary = run_experiment(spec, db_path, workers=2, echo=lambda _: None)
        assert (summary.executed, summary.failed) == (2, 0)
        with ResultsDB(db_path) as db:
            rows = {r["trial_id"]: r for r in db.latest_trials(summary.experiment_id)}
            overhead = db.metrics_for(rows["obs-overhead"]["id"])
            assert overhead["ingest.off.edges_per_sec"] > 0
            assert overhead["serving.metrics.requests_per_sec"] > 0
            assert "captured_output" in overhead
            figure = db.metrics_for(rows["paper[experiment=figure4]"]["id"])
            assert "Figure 4" in figure["rendered"]
            assert gate_experiment(db, spec, echo=lambda _: None) == 0

    def test_paper_trial_rejects_a_param_no_experiment_accepts(self):
        """``scale`` may ride along to ``figure4``, which takes none; ``scal``
        used to be dropped the same way and the full-scale table returned."""
        with pytest.raises(ValueError, match="unknown bench param 'scal'; known: .*scale"):
            paper_trial(TrialContext("t", "paper", {"experiment": "table1", "scal": 0.3}))
        shared = TrialContext("t", "paper", {"experiment": "figure4", "scale": 0.3})
        assert "Figure 4" in paper_trial(shared)["rendered"]
