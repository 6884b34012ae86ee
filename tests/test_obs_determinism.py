"""Telemetry is out-of-band: instrumented runs are bit-identical.

The obs layer's standing promise (ISSUE 10, ARCHITECTURE.md) is that
enabling metrics and tracing changes *nothing* about a run's outputs —
placements, served answers, quality numbers — and that the trace itself
is deterministic modulo its ``ts`` timestamps.  Both halves are enforced
here the same way ``tests/test_determinism.py`` pins the core pipeline:
fresh subprocesses under *different* ``PYTHONHASHSEED`` values (so
str/tuple hashing and heap layout both vary), compared byte-for-byte.

Three comparisons:

* assignment bytes: obs-off run == obs-on run (out-of-band),
* assignment bytes: obs-on run A == obs-on run B under different hash
  seeds (still deterministic with telemetry enabled),
* masked trace sequences (``ts`` dropped): run A == run B — every event
  id, kind and field reproduces.

The double run is made twice: served in one process (the in-process
engine) and in three (``--serve-shards 2``: the driver and two live shard
servers, whose hop and completion events join the trace).

Runs go through ``python -m repro.partition_cli`` — the same entry point
CI's live smoke traces — with ``--serve`` so the trace holds the full
ingest + serving lifecycle.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    from repro.datasets.registry import load_dataset
    from repro.graph.io import write_graph
    from repro.query.io import write_workload

    tmp = tmp_path_factory.mktemp("obs-det")
    dataset = load_dataset("provgen", 300, seed=5)
    graph_path = tmp / "graph.txt"
    workload_path = tmp / "workload.txt"
    write_graph(dataset.graph, graph_path)
    write_workload(dataset.workload, workload_path)
    return graph_path, workload_path, tmp


def _run_cli(files, tag, hash_seed, serve_shards=0, trace=True):
    """One pristine-interpreter CLI run → (assignment bytes, trace path)."""
    graph_path, workload_path, tmp = files
    out = tmp / f"assignment-{tag}.tsv"
    trace_out = tmp / f"trace-{tag}.jsonl"
    argv = [
        sys.executable,
        "-m",
        "repro.partition_cli",
        str(graph_path),
        "--workload",
        str(workload_path),
        "--system",
        "loom",
        "--k",
        "4",
        "--window",
        "80",
        "--serve",
        "60",
        "--serve-shards",
        str(serve_shards),
        # One request outstanding: with more, the order live requests
        # *complete* in (hence the trace) is the scheduler's, not ours.
        "--inflight",
        "1",
        "--out",
        str(out),
    ]
    if trace:
        argv += ["--trace-out", str(trace_out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes(), (trace_out if trace else None)


def _masked_trace(path):
    from repro.obs.trace import load_jsonl, masked

    return masked(load_jsonl(str(path)))


@pytest.mark.parametrize("processes", [1, 3])
def test_traced_double_run_bit_identical(files, processes):
    """Different hash seeds, tracing on: same assignment, same masked trace
    — served in-process (1) and through two live shard servers (3)."""
    serve_shards = processes - 1
    first_bytes, first_trace = _run_cli(files, f"p{processes}-a", 101, serve_shards)
    second_bytes, second_trace = _run_cli(files, f"p{processes}-b", 9091, serve_shards)
    assert first_bytes == second_bytes
    first_events = _masked_trace(first_trace)
    second_events = _masked_trace(second_trace)
    assert first_events, "trace should not be empty"
    assert first_events == second_events


def test_obs_on_vs_off_identical_assignment(files):
    """The out-of-band half: telemetry must not perturb a single placement."""
    plain_bytes, _ = _run_cli(files, "off", 7, trace=False)
    traced_bytes, trace_path = _run_cli(files, "on", 7, trace=True)
    assert plain_bytes == traced_bytes
    events = _masked_trace(trace_path)
    kinds = {rec["kind"] for rec in events}
    assert "ingest.batch" in kinds
    assert "serve.done" in kinds


def test_env_hook_enables_in_subprocess(files):
    """``REPRO_OBS=1`` flips the registry on at import — the hook CI's
    smoke and these double-runs rely on."""
    probe = (
        "from repro import obs; import sys; "
        "sys.exit(0 if obs.enabled() else 1)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_OBS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0
