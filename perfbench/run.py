"""The smoothlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run from the root of a source checkout.  Every repetition is a fresh Python
process (child.py) that imports smoothlab from src/, calls make_config,
run_experiment(parallelism=1) and assert_report, and checks its outputs.
Repetitions run one after another until --seconds is spent.

--trace 0 prints the end-to-end metrics: medians over the repetitions of
setup_s, run_s and peak_rss_mb.  setup_s and run_s are rescaled to a
reference host speed by a probe timed next to them; the wall-clock samples
are printed beneath.  --trace 1 runs one untraced repetition and
then traced ones, and prints the per-layer metrics (medians over the traced
repetitions).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
samples and the provenance of the run.  ``--workload all`` runs every
workload untraced and then traced, at the default seed unless --seed is
given.  The exit code is 0 only when the output gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import PROBE_REF_S
from gate import diff_digests, frozen_digests
from workloads import DEFAULT_SEED, WORKLOADS, spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_REPS = 3
MIN_TRACED_REPS = 2
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150
# One BLAS thread per process: the matrix products here are too small to
# gain from more, and idle BLAS threads spinning on two shared cores only
# add noise.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_child(job: dict, mode: str = "run") -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(job), mode],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        env={**os.environ, **CHILD_ENV},
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"workload process exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def repeat(job: dict, mode: str, minimum: int, deadline: float) -> list[dict]:
    """At least ``minimum`` repetitions, more while the next one fits."""
    reps: list[dict] = []
    while True:
        start = time.perf_counter()
        reps.append(run_child(job, mode))
        last = time.perf_counter() - start
        if len(reps) >= minimum and time.perf_counter() + last > deadline:
            return reps


def at_reference_speed(rep: dict, key: str) -> float:
    """A repetition's time rescaled to the reference host speed.

    Set-up is scaled by the probe that follows it, the run by the mean of
    the probes just before and just after it (see child.probe).
    """
    probes = rep["probe_s"] if key == "run_s" else rep["probe_s"][:1]
    return rep[key] * PROBE_REF_S * len(probes) / sum(probes)


def gate_failures(job: dict, plain: list[dict], traced: list[dict], count_keys) -> list[str]:
    """Everything the output gate found, each naming what differed."""
    reps = [("untraced", r) for r in plain] + [("traced", r) for r in traced]
    failures = []
    for i, (how, r) in enumerate(reps):
        failures += [f"{how} repetition {i}: {msg}" for msg in r["failures"]]
        if r["errors"]:
            failures.append(f"{how} repetition {i}: {r['errors']} error record(s)")
    reference = plain[0]["digests"]
    for i, (how, r) in enumerate(reps[1:], 1):
        for name in diff_digests(reference, r["digests"]):
            failures.append(f"{how} repetition {i}: {name} differs from untraced repetition 0")
    if job["size"] == "full" and job["seed"] == DEFAULT_SEED:
        frozen = frozen_digests(job["workload"])
        if frozen is None:
            failures.append(f"no digests frozen for {job['workload']} in digests.json")
        else:
            for name in diff_digests(frozen, reference):
                failures.append(f"{name} differs from its digest frozen in digests.json")
    for key in ("bytes_written", "files_written"):
        if len({r[key] for _, r in reps}) > 1:
            failures.append(f"{key} differs across repetitions: {[r[key] for _, r in reps]}")
    for key in count_keys:
        values = [r["layers"][key] for r in traced]
        if len(set(values)) > 1:
            failures.append(f"count {key} differs across traced repetitions: {values}")
    return failures


def median(values: list, unit: str):
    """The median; for counts, a count that was actually measured."""
    if unit in ("count", "bytes"):
        return statistics.median_low(values)
    return statistics.median(values)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(job: dict, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds``; return its result and report."""
    units = declared_units(trace)
    load_before = os.getloadavg()[0]
    deadline = time.perf_counter() + seconds
    if trace:
        plain = [run_child(job)]
        traced = repeat(job, "trace", MIN_TRACED_REPS, deadline)
    else:
        run_child(job, "setup")  # unmeasured: fills the bytecode and file caches
        plain = repeat(job, "run", MIN_REPS, deadline)
        traced = []
    setup_reps = list(plain)
    while not trace and len(setup_reps) < MIN_SETUPS:
        setup_reps.append(run_child(job, "setup"))

    samples: dict[str, list] = {}
    wall: dict[str, list] = {}
    if trace:
        for name in units:
            if name in traced[0]["layers"]:
                samples[name] = [r["layers"][name] for r in traced]
        for key in ("bytes_written", "files_written"):
            samples[f"harness.{key}"] = [r[key] for r in traced]
        untraced = at_reference_speed(plain[0], "run_s")
        samples["trace.overhead_frac"] = [
            at_reference_speed(r, "run_s") / untraced - 1.0 for r in traced
        ]
    else:
        samples = {
            "setup_s": [at_reference_speed(r, "setup_s") for r in setup_reps],
            "run_s": [at_reference_speed(r, "run_s") for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        wall = {
            "setup_s": [r["setup_s"] for r in setup_reps],
            "run_s": [r["run_s"] for r in plain],
        }
    if set(samples) != set(units):
        raise RuntimeError(
            f"measured {sorted(samples)} but BENCHMARK.json declares {sorted(units)}"
        )

    count_keys = [n for n, u in units.items() if u == "count" and not n.startswith("harness.")]
    failures = gate_failures(job, plain, traced, count_keys)
    reps = plain + traced
    attempted = job["trials"] * len(reps)
    errors = sum(r["errors"] for r in reps)
    return {
        "workload": job["workload"],
        "traced": trace,
        "samples": samples,
        "wall": wall,
        "failures": failures,
        "error_frac": errors / attempted,
        "provenance": {
            **plain[0]["versions"],
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "workload": job["workload"],
            "seed": job["seed"],
            "trials": job["trials"],
            "repetitions": {"untraced": len(plain), "traced": len(traced)},
            "load1_before": load_before,
            "load1_after": os.getloadavg()[0],
            "probe_s_median": statistics.median(p for r in reps for p in r["probe_s"]),
        },
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": errors,
            "metrics": {
                name: {"value": median(samples[name], unit), "unit": unit}
                for name, unit in units.items()
            },
        },
    }


def report(outcome: dict) -> None:
    """The human-readable lines printed before the result."""
    result = outcome["result"]
    print(f"workload {outcome['workload']}" + (" (traced)" if outcome["traced"] else ""))
    for name, metric in result["metrics"].items():
        values = " ".join(f"{v:.6g}" for v in outcome["samples"][name])
        print(f"  {name:28s} {metric['value']:<14.6g} {metric['unit']:6s} samples: {values}")
        if name in outcome["wall"]:
            values = " ".join(f"{v:.6g}" for v in outcome["wall"][name])
            print(f"  {'':28s} {'wall clock':21s} samples: {values}")
    print(
        f"  {'error_frac':28s} {outcome['error_frac']:<14.6g} {'1':6s} "
        f"{result['failed']} error record(s) in {result['attempted']} trials"
    )
    for failure in outcome["failures"]:
        print(f"  GATE FAILED: {failure}")
    print("provenance " + json.dumps(outcome["provenance"], sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "smoothlab").is_dir():
        print(f"no smoothlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if args.workload != "all":
        outcome = measure(spec(args.workload, args.seed), args.seconds, bool(args.trace))
        report(outcome)
        print(json.dumps(outcome["result"]))
        return 0 if outcome["result"]["correct"] else 1

    correct = True
    for name in WORKLOADS:
        for trace in (False, True):
            outcome = measure(spec(name, args.seed), args.seconds, trace)
            report(outcome)
            correct = correct and outcome["result"]["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
