"""Smoke test of the benchmark itself, at a much smaller size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every end-to-end and per-layer metric in BENCHMARK.json is
emitted with its unit on every workload, and that the output gate fails,
naming the file, when a run directory is altered.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import pytest

import gate
import run
from workloads import DEFAULT_SEED, WORKLOADS, spec

SEED = 7


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    outcome = run.measure(spec(name, SEED, "smoke"), seconds=1, trace=trace)
    result = outcome["result"]
    assert outcome["failures"] == []
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = run.declared_units(trace)
    assert list(result["metrics"]) == list(declared)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == declared[metric] and entry["unit"]
        assert isinstance(entry["value"], (int, float)), metric
    if trace:
        # Each workload runs the module its kind names; its adversary is traced.
        assert result["metrics"][f"{WORKLOADS[name]['kind']}.adversary_calls"]["value"] > 0
    json.dumps(result)


@pytest.fixture
def coupling_run_dir():
    sys.path.insert(0, str(run.ROOT / "src"))
    from smoothlab import harness

    job = spec("coupling-10k", SEED, "smoke")
    cfg = harness.make_config(job["kind"], job["params"], job["trials"], job["seed"])
    (run.ROOT / ".bench_build").mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=run.ROOT / ".bench_build")
    harness.run_experiment(cfg, run_dir, parallelism=1)
    yield harness, cfg, run_dir
    shutil.rmtree(run_dir)


def test_gate_fails_on_an_altered_run_directory(coupling_run_dir):
    harness, cfg, run_dir = coupling_run_dir
    assert gate.check_run(harness, cfg.kind, cfg.params, run_dir) == []
    before = gate.digest_dir(run_dir)

    with open(f"{run_dir}/traces.jsonl", "a") as f:
        f.write("\n")
    assert gate.diff_digests(before, gate.digest_dir(run_dir)) == ["traces.jsonl"]

    with open(f"{run_dir}/metrics.jsonl", "a") as f:
        f.write(json.dumps({"trial": cfg.trials, "error": "injected"}) + "\n")
    failures = gate.check_run(harness, cfg.kind, cfg.params, run_dir)
    assert "summarize() does not reproduce summary.json" in failures
    assert gate.diff_digests(before, gate.digest_dir(run_dir)) == ["metrics.jsonl", "traces.jsonl"]


def test_gate_names_files_that_differ_between_repetitions_or_from_frozen():
    frozen = gate.frozen_digests("learning-hedge")
    rep = {"failures": [], "errors": 0, "digests": dict(frozen), "bytes_written": 1, "files_written": 11}
    moved = {**rep, "digests": {**frozen, "ledger_0001.csv": "0" * 64}}
    job = spec("learning-hedge", DEFAULT_SEED)

    assert run.gate_failures(job, [rep, rep], [], []) == []
    assert run.gate_failures(job, [rep, moved], [], []) == [
        "untraced repetition 1: ledger_0001.csv differs from untraced repetition 0"
    ]
    assert run.gate_failures(job, [moved], [], []) == [
        "ledger_0001.csv differs from its digest frozen in digests.json"
    ]
