"""The append-only SQLite results store behind every experiment run.

Three tables::

    experiments(id, name, spec_hash, spec_json, created_at)
    trials(id, experiment_id, trial_id, bench, params_json, seed,
           status, traceback, duration_seconds, created_at)
    metrics(trial_row, name, value, text_value)

Rows are only ever inserted — a rerun of the same spec appends new trial
rows rather than updating old ones, and every reader takes the *latest*
row per trial id.  That is what makes runs resumable (completed trials
are skipped by :func:`repro.experiment.runner.run_experiment`), crashes
inspectable (the failed row with its traceback stays), and history
queryable (``trend`` reads every row; the nightly job uploads the DB as
an artifact).

Numeric metric values land in ``value``; strings (rendered tables,
captured stdout, JSON-encoded lists) land in ``text_value``.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Set, Tuple

_SCHEMA = """
CREATE TABLE IF NOT EXISTS experiments (
    id          INTEGER PRIMARY KEY,
    name        TEXT NOT NULL,
    spec_hash   TEXT NOT NULL,
    spec_json   TEXT NOT NULL,
    created_at  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS ix_experiments_name ON experiments(name, spec_hash);

CREATE TABLE IF NOT EXISTS trials (
    id               INTEGER PRIMARY KEY,
    experiment_id    INTEGER NOT NULL REFERENCES experiments(id),
    trial_id         TEXT NOT NULL,
    bench            TEXT NOT NULL,
    params_json      TEXT NOT NULL,
    seed             INTEGER NOT NULL,
    status           TEXT NOT NULL CHECK (status IN ('ok', 'failed')),
    traceback        TEXT,
    duration_seconds REAL NOT NULL,
    created_at       REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS ix_trials_experiment ON trials(experiment_id, trial_id);

CREATE TABLE IF NOT EXISTS metrics (
    trial_row  INTEGER NOT NULL REFERENCES trials(id),
    name       TEXT NOT NULL,
    value      REAL,
    text_value TEXT
);
CREATE INDEX IF NOT EXISTS ix_metrics_trial ON metrics(trial_row, name);
"""


class ResultsDB:
    """One connection to a results DB; creates the schema on first open."""

    def __init__(self, path: "str | Path"):
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- experiments ----------------------------------------------------
    def ensure_experiment(self, name: str, spec_hash: str, spec_json: str) -> int:
        """The experiment row for (name, spec content) — reused on resume."""
        row = self._conn.execute(
            "SELECT id FROM experiments WHERE name = ? AND spec_hash = ? "
            "ORDER BY id DESC LIMIT 1",
            (name, spec_hash),
        ).fetchone()
        if row is not None:
            return int(row["id"])
        cursor = self._conn.execute(
            "INSERT INTO experiments (name, spec_hash, spec_json, created_at) "
            "VALUES (?, ?, ?, ?)",
            (name, spec_hash, spec_json, time.time()),
        )
        self._conn.commit()
        return int(cursor.lastrowid)

    def latest_experiment(self, name: Optional[str] = None) -> Optional[sqlite3.Row]:
        if name is None:
            query = "SELECT * FROM experiments ORDER BY id DESC LIMIT 1"
            return self._conn.execute(query).fetchone()
        return self._conn.execute(
            "SELECT * FROM experiments WHERE name = ? ORDER BY id DESC LIMIT 1",
            (name,),
        ).fetchone()

    def experiments(self) -> List[sqlite3.Row]:
        return list(self._conn.execute("SELECT * FROM experiments ORDER BY id"))

    # -- trials ---------------------------------------------------------
    def completed_trial_ids(self, experiment_id: int) -> Set[str]:
        """Trial ids whose *latest* row is 'ok' — the resume skip set.

        Failed trials are deliberately absent: rerunning a spec retries
        them (their failed rows stay behind as history).
        """
        rows = self._conn.execute(
            "SELECT trial_id, status FROM trials WHERE experiment_id = ? "
            "ORDER BY id",
            (experiment_id,),
        ).fetchall()
        latest: Dict[str, str] = {}
        for row in rows:
            latest[row["trial_id"]] = row["status"]
        return {trial_id for trial_id, status in latest.items() if status == "ok"}

    def record_trial(
        self,
        experiment_id: int,
        trial_id: str,
        bench: str,
        params: Mapping[str, object],
        seed: int,
        status: str,
        duration_seconds: float,
        metrics: Mapping[str, object],
        traceback_text: Optional[str] = None,
    ) -> int:
        """Insert one trial row plus its metrics, atomically."""
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO trials (experiment_id, trial_id, bench, params_json, "
                "seed, status, traceback, duration_seconds, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    experiment_id,
                    trial_id,
                    bench,
                    json.dumps(dict(params), sort_keys=True),
                    seed,
                    status,
                    traceback_text,
                    duration_seconds,
                    time.time(),
                ),
            )
            trial_row = int(cursor.lastrowid)
            self._conn.executemany(
                "INSERT INTO metrics (trial_row, name, value, text_value) "
                "VALUES (?, ?, ?, ?)",
                [
                    (
                        trial_row,
                        name,
                        float(value) if isinstance(value, (int, float)) else None,
                        value if isinstance(value, str) else None,
                    )
                    for name, value in metrics.items()
                ],
            )
        return trial_row

    def latest_trials(self, experiment_id: int) -> List[sqlite3.Row]:
        """The latest row per trial id, in trial-id-first-seen order."""
        rows = self._conn.execute(
            "SELECT * FROM trials WHERE experiment_id = ? ORDER BY id",
            (experiment_id,),
        ).fetchall()
        latest: Dict[str, sqlite3.Row] = {}
        for row in rows:
            latest[row["trial_id"]] = row
        return list(latest.values())

    def metrics_for(self, trial_row: int) -> Dict[str, object]:
        """name → float (numeric) or str (text) for one trial row."""
        out: Dict[str, object] = {}
        for row in self._conn.execute(
            "SELECT name, value, text_value FROM metrics WHERE trial_row = ? "
            "ORDER BY rowid",
            (trial_row,),
        ):
            out[row["name"]] = row["value"] if row["value"] is not None else row["text_value"]
        return out

    # -- history --------------------------------------------------------
    def metric_history(
        self,
        trial_id: str,
        metric: str,
        experiment: Optional[str] = None,
    ) -> List[Tuple[float, float]]:
        """Every recorded ``(created_at, value)`` of one metric, oldest first.

        Unlike every other reader this one does *not* collapse to the
        latest row per trial id — the whole point is the trajectory the
        append-only design preserves.  ``experiment`` restricts to one
        experiment name (a trial id can recur across specs).
        """
        query = (
            "SELECT trials.created_at AS created_at, metrics.value AS value "
            "FROM trials "
            "JOIN metrics ON metrics.trial_row = trials.id "
            "JOIN experiments ON experiments.id = trials.experiment_id "
            "WHERE trials.trial_id = ? AND metrics.name = ? "
            "AND metrics.value IS NOT NULL AND trials.status = 'ok' "
        )
        params: List[object] = [trial_id, metric]
        if experiment is not None:
            query += "AND experiments.name = ? "
            params.append(experiment)
        query += "ORDER BY trials.id"
        return [
            (float(row["created_at"]), float(row["value"]))
            for row in self._conn.execute(query, params)
        ]

    def trial_ids_with_metric(
        self, metric: str, experiment: Optional[str] = None
    ) -> List[str]:
        """Trial ids that ever recorded a numeric value for ``metric``."""
        query = (
            "SELECT DISTINCT trials.trial_id AS trial_id FROM trials "
            "JOIN metrics ON metrics.trial_row = trials.id "
            "JOIN experiments ON experiments.id = trials.experiment_id "
            "WHERE metrics.name = ? AND metrics.value IS NOT NULL "
        )
        params: List[object] = [metric]
        if experiment is not None:
            query += "AND experiments.name = ? "
            params.append(experiment)
        query += "ORDER BY trials.trial_id"
        return [row["trial_id"] for row in self._conn.execute(query, params)]


def flatten_metrics(tree: Mapping[str, object], prefix: str = "") -> Dict[str, object]:
    """A nested bench results tree as flat ``a.b.c`` metric rows.

    Numbers stay numeric, strings stay text, bools become 0/1, lists and
    tuples are JSON-encoded into text (``repeat_seconds``), ``None`` is
    dropped.  This is the one conversion between a trial's payload shape
    and the DB, so every payload round-trips the same way.
    """
    flat: Dict[str, object] = {}
    for key, value in tree.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            flat.update(flatten_metrics(value, name))
        elif isinstance(value, bool):
            flat[name] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            flat[name] = float(value)
        elif isinstance(value, str):
            flat[name] = value
        elif isinstance(value, (list, tuple)):
            flat[name] = json.dumps(list(value))
        elif value is None:
            continue
        else:
            flat[name] = str(value)
    return flat

