"""Declarative experiment specs: datasets × partitioners × configs as data.

A spec file (TOML or JSON) declares *what to measure*; the runner decides
nothing.  The schema, by example::

    [experiment]
    name = "nightly"
    description = "paper figures + obs overhead"
    seed = 0
    trial_modules = ["benchmarks/bench_obs_overhead.py"]

    [[trial]]
    bench = "obs-overhead"          # a registered trial function
    repeats = 2                     # optional: N identical rows (spread)
    [trial.params]                  # passed to the trial verbatim
    edges = 2000
    [trial.matrix]                  # axes: one trial per combination
    k = [4, 8]
    [trial.gate]                    # optional: exempt the trial from
    enabled = false                 # `experiment gate` (default: gated)

Every ``[[trial]]`` expands into ``len(matrix product) × repeats`` trial
rows with ids like ``obs-overhead[k=4]#r1``.  Expansion is deterministic:
axes combine in declaration order, ids are stable, and each trial's seed
is either its explicit ``params.seed`` or derived from the experiment
seed and the trial's *group* id with SHA-256 — never from global RNG
(detlint's DET-random patrols this package).  Repeats of one group share
a seed on purpose: same workload, independent timings, so the report can
show min/median/spread.

The canonical JSON form (:meth:`ExperimentSpec.to_json`) is stored in the
results DB alongside every run, which is what makes ``gate`` and
``report`` self-contained: they re-read the spec from the DB.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Keys legal in a ``[[trial]]`` table; anything else is a spec typo.
_TRIAL_KEYS = frozenset({"bench", "id", "repeats", "params", "matrix", "gate"})
_EXPERIMENT_KEYS = frozenset({"name", "description", "seed", "trial_modules", "workers"})
_GATE_KEYS = frozenset({"enabled"})


class SpecError(ValueError):
    """A malformed experiment spec (unknown key, bad matrix, duplicate id)."""


@dataclass(frozen=True)
class GateSpec:
    """Whether ``experiment gate`` judges one trial (the rule itself is
    :mod:`repro.experiment.gate`'s)."""

    enabled: bool = True

    @classmethod
    def from_mapping(cls, data: Mapping[str, object], where: str) -> "GateSpec":
        unknown = sorted(set(data) - _GATE_KEYS)
        if unknown:
            raise SpecError(f"{where}: unknown gate key(s) {', '.join(unknown)}")
        return cls(enabled=bool(data.get("enabled", True)))


@dataclass(frozen=True)
class TrialSpec:
    """One expanded (bench, params, seed) cell of the experiment matrix."""

    trial_id: str
    #: The repeat group: ``trial_id`` minus its ``#rN`` suffix.  Repeats of
    #: one group share params and seed; the report aggregates across them.
    group: str
    bench: str
    params: Mapping[str, object]
    seed: int
    gate: GateSpec = field(default_factory=GateSpec)

    def task(self) -> Dict[str, object]:
        """The picklable form shipped to worker processes."""
        return {
            "trial_id": self.trial_id,
            "bench": self.bench,
            "params": dict(self.params),
            "seed": self.seed,
        }


def derive_seed(base_seed: int, group_id: str) -> int:
    """A per-trial seed from the experiment seed and the trial's identity.

    SHA-256, not ``random``: the same spec must expand to the same seeds on
    every machine and every run (resume depends on it).
    """
    digest = hashlib.sha256(f"{base_seed}:{group_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def _format_axis_value(value: object) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _expand_trial(table: Mapping[str, object], index: int, base_seed: int) -> List[TrialSpec]:
    where = f"trial #{index + 1}"
    unknown = sorted(set(table) - _TRIAL_KEYS)
    if unknown:
        raise SpecError(f"{where}: unknown key(s) {', '.join(unknown)}")
    bench = table.get("bench")
    if not isinstance(bench, str) or not bench:
        raise SpecError(f"{where}: 'bench' must name a registered trial function")
    params = dict(table.get("params", {}))
    matrix = table.get("matrix", {})
    if not isinstance(matrix, Mapping):
        raise SpecError(f"{where}: 'matrix' must be a table of axis -> list of values")
    for axis, values in matrix.items():
        if not isinstance(values, list) or not values:
            raise SpecError(f"{where}: matrix axis {axis!r} must be a non-empty list")
        if axis in params:
            raise SpecError(f"{where}: {axis!r} appears in both params and matrix")
    repeats = int(table.get("repeats", 1))
    if repeats < 1:
        raise SpecError(f"{where}: repeats must be >= 1")
    gate = GateSpec.from_mapping(table.get("gate", {}), where)
    explicit_id = table.get("id")

    trials: List[TrialSpec] = []
    axes = list(matrix.items())  # declaration order — expansion is stable
    for combo in itertools.product(*(values for _, values in axes)):
        cell_params = dict(params)
        coords = []
        for (axis, _), value in zip(axes, combo):
            cell_params[axis] = value
            coords.append(f"{axis}={_format_axis_value(value)}")
        base = explicit_id if isinstance(explicit_id, str) and explicit_id else bench
        group = base + (f"[{','.join(coords)}]" if coords else "")
        seed = int(cell_params.get("seed", derive_seed(base_seed, group)))
        for repeat in range(repeats):
            trial_id = group if repeats == 1 else f"{group}#r{repeat + 1}"
            trials.append(
                TrialSpec(
                    trial_id=trial_id,
                    group=group,
                    bench=bench,
                    params=cell_params,
                    seed=seed,
                    gate=gate,
                )
            )
    return trials


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, hashable set of trials plus the modules that define them."""

    name: str
    description: str = ""
    seed: int = 0
    trial_modules: Tuple[str, ...] = ()
    trials: Tuple[TrialSpec, ...] = ()
    #: Pin the worker count (``workers = 1`` serialises timing-sensitive
    #: trials); ``None`` lets the runner pick from the machine.
    workers: Optional[int] = None

    @classmethod
    def from_mapping(cls, data: Mapping[str, object]) -> "ExperimentSpec":
        header = data.get("experiment", {})
        if not isinstance(header, Mapping):
            raise SpecError("'experiment' must be a table")
        unknown = sorted(set(header) - _EXPERIMENT_KEYS)
        if unknown:
            raise SpecError(f"experiment: unknown key(s) {', '.join(unknown)}")
        name = header.get("name")
        if not isinstance(name, str) or not name:
            raise SpecError("experiment.name is required")
        extraneous = sorted(set(data) - {"experiment", "trial"})
        if extraneous:
            raise SpecError(f"unknown top-level key(s) {', '.join(extraneous)}")
        seed = int(header.get("seed", 0))
        tables = data.get("trial", [])
        if not isinstance(tables, list) or not tables:
            raise SpecError("a spec needs at least one [[trial]]")
        trials: List[TrialSpec] = []
        for index, table in enumerate(tables):
            trials.extend(_expand_trial(table, index, seed))
        seen: Dict[str, int] = {}
        for trial in trials:
            if trial.trial_id in seen:
                raise SpecError(
                    f"duplicate trial id {trial.trial_id!r} — give one of the "
                    "[[trial]] tables an explicit 'id'"
                )
            seen[trial.trial_id] = 1
        workers = header.get("workers")
        if workers is not None:
            workers = int(workers)
            if workers < 1:
                raise SpecError("experiment.workers must be >= 1")
        return cls(
            name=name,
            description=str(header.get("description", "")),
            seed=seed,
            trial_modules=tuple(header.get("trial_modules", ())),
            trials=tuple(trials),
            workers=workers,
        )

    @classmethod
    def from_file(cls, path: "str | Path") -> "ExperimentSpec":
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            data = json.loads(text)
        else:
            import tomllib

            data = tomllib.loads(text)
        return cls.from_mapping(data)

    def to_json(self) -> str:
        """Canonical JSON: what the DB stores and ``spec_hash`` digests."""
        payload = {
            "experiment": {
                "name": self.name,
                "description": self.description,
                "seed": self.seed,
                "trial_modules": list(self.trial_modules),
                "workers": self.workers,
            },
            "trials": [
                {
                    "trial_id": t.trial_id,
                    "group": t.group,
                    "bench": t.bench,
                    "params": dict(t.params),
                    "seed": t.seed,
                    "gate": {"enabled": t.gate.enabled},
                }
                for t in self.trials
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        data = json.loads(text)
        header = data["experiment"]
        trials = tuple(
            TrialSpec(
                trial_id=t["trial_id"],
                group=t["group"],
                bench=t["bench"],
                params=t["params"],
                seed=int(t["seed"]),
                # Only ``enabled`` is read: results DBs are append-only, and
                # specs stored before the ratio gate was removed carry two
                # more gate keys that must not stop ``report`` / ``ls`` /
                # ``trend`` from loading them.
                gate=GateSpec(enabled=bool(t["gate"]["enabled"])),
            )
            for t in data["trials"]
        )
        return cls(
            name=header["name"],
            description=header.get("description", ""),
            seed=int(header.get("seed", 0)),
            trial_modules=tuple(header.get("trial_modules", ())),
            trials=trials,
            workers=header.get("workers"),
        )

    @property
    def spec_hash(self) -> str:
        """Identity for resume: same spec content → same experiment row."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]

    def resolve_trial_modules(self, spec_dir: Optional[Path] = None) -> List[str]:
        """Module references as absolute paths (or dotted names, unchanged).

        Relative file paths are resolved against the spec file's directory,
        then its parent (specs live in ``experiments/``, benches in
        ``benchmarks/`` — siblings under the repo root), then the CWD.
        """
        resolved: List[str] = []
        for ref in self.trial_modules:
            if not ref.endswith(".py"):
                resolved.append(ref)  # dotted module name
                continue
            candidate = Path(ref)
            if candidate.is_absolute():
                resolved.append(str(candidate))
                continue
            roots = [spec_dir, spec_dir.parent if spec_dir else None, Path.cwd()]
            for root in roots:
                if root is not None and (root / candidate).exists():
                    resolved.append(str((root / candidate).resolve()))
                    break
            else:
                raise SpecError(f"trial module not found: {ref}")
        return resolved


def load_spec(path: "str | Path") -> Tuple[ExperimentSpec, List[str]]:
    """Parse a spec file and resolve its trial modules in one step."""
    path = Path(path)
    spec = ExperimentSpec.from_file(path)
    return spec, spec.resolve_trial_modules(path.resolve().parent)


def group_order(trials: Sequence[TrialSpec]) -> List[str]:
    """Distinct group ids in first-appearance order (report section order)."""
    seen: Dict[str, None] = {}
    for trial in trials:
        seen.setdefault(trial.group, None)
    return list(seen)
