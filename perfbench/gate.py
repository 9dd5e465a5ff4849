"""The output gate: every run must be correct, and its bytes must not move.

A run passes when assert_report() finds nothing, summarize() re-reads the
directory to the same summary.json bytes, and, where a digest is expected,
the sha256 of every file in the directory equals it.  Mismatches are named.

``python3 perfbench/gate.py`` prints the digests of every workload at the
default seed, in the format of digests.json, for re-freezing after a change
that is meant to alter the output bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FROZEN = Path(__file__).with_name("digests.json")


def digest_dir(run_dir) -> dict[str, str]:
    """sha256 of every file in a run directory, by file name."""
    digests = {}
    for path in sorted(Path(run_dir).iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
        digests[path.name] = h.hexdigest()
    return digests


def check_run(harness, kind: str, params: dict, run_dir) -> list[str]:
    """Failures of assert_report and of the summary round trip."""
    run_dir = Path(run_dir)
    stored = (run_dir / "summary.json").read_bytes()
    failures = [
        f"assert_report: {msg}"
        for msg in harness.assert_report(kind, params, json.loads(stored))
    ]
    if harness.summary_to_json(harness.summarize(run_dir)).encode() != stored:
        failures.append("summarize() does not reproduce summary.json")
    return failures


def diff_digests(expected: dict, actual: dict) -> list[str]:
    """Names of files missing, extra or with different bytes."""
    return sorted(n for n in set(expected) | set(actual) if expected.get(n) != actual.get(n))


def frozen_digests(workload: str) -> dict | None:
    return json.loads(FROZEN.read_text()).get(workload)


if __name__ == "__main__":
    import run
    from workloads import DEFAULT_SEED, WORKLOADS, spec

    frozen = {}
    for name in WORKLOADS:
        rep = run.run_child(spec(name, DEFAULT_SEED))
        if rep["failures"] or rep["errors"]:
            raise SystemExit(f"{name} does not pass the gate: {rep['failures']}")
        frozen[name] = rep["digests"]
    print(json.dumps(frozen, indent=1, sort_keys=True))
