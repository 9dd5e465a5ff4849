"""One repetition of a workload, in a fresh process: set up, run, check.

    python3 perfbench/child.py '<job json>' setup|run|trace

``setup`` stops once make_config returns, ``run`` makes one untraced
harness run and ``trace`` the same run with every layer boundary traced.
A host-speed probe runs after set-up and after the run.  The last line of
stdout is one JSON object with the measurements, the probe times, the gate
failures and the digest of every file the run wrote.  The run directory is
fresh and empty, and is deleted after hashing.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
# The host's speed swings by tens of percent within seconds and drifts over
# minutes.  The probe, timed next to set-up and run, measures that speed;
# PROBE_REF_S is its time at the reference speed, about its median on the
# VM the bounds were set on.
PROBE_REF_S = 0.22


def probe() -> float:
    """Seconds this host takes for a fixed mix of interpreter and numpy work.

    The mix (integer loop, small numpy calls, JSON, a sort) slows under the
    same neighbours' CPU and cache pressure as the workloads do.  It is timed
    in the workload process next to the interval it rescales, so both run on
    the same CPU, and it touches no smoothlab code.
    """
    import numpy as np

    gen = np.random.default_rng(0)
    points, vector, cells = gen.random(2000), gen.random(1024), np.arange(16)
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    for i in range(3000):
        total += int(np.isin(cells, cells[:4]).sum())
        total += float(np.cosh(vector).mean()) > 0
        total += len(json.dumps({"cells": [int(c) for c in cells], "i": i}))
    for _ in range(120):
        total += int(np.sort(points)[0] > 1)
    return time.perf_counter() - start


def main(job: dict, mode: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    out: dict = {}
    tracer = None
    if mode == "trace":
        import layers

        t0 = time.perf_counter()
        import smoothlab.stats  # noqa: F401

        t1 = time.perf_counter()
        import smoothlab.harness  # noqa: F401

        imports = {"stats.import_s": t1 - t0, "harness.import_s": time.perf_counter() - t1}
        tracer = layers.Tracer()
        layers.install(tracer)
    from smoothlab import harness

    cfg = harness.make_config(job["kind"], job["params"], job["trials"], job["seed"])
    out["setup_s"] = time.perf_counter() - T0
    out["probe_s"] = [probe()]
    if mode == "setup":
        return out

    import numpy
    import scipy

    import gate

    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{job['workload']}-", dir=WORK / "runs"))
    try:
        t = time.perf_counter()
        result = harness.run_experiment(cfg, run_dir, parallelism=1)
        out["run_s"] = time.perf_counter() - t
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["probe_s"].append(probe())
        if tracer is not None:
            out["layers"] = {**imports, **layers.layer_metrics(tracer)}
            layers.write_spans(tracer, WORK / f"spans-{job['workload']}.jsonl")
        out["failures"] = gate.check_run(harness, cfg.kind, result.config.params, run_dir)
        out["digests"] = gate.digest_dir(run_dir)
        rows = (run_dir / "metrics.jsonl").read_text().splitlines()
        out["errors"] = sum("error" in json.loads(row) for row in rows)
        out["bytes_written"] = sum(p.stat().st_size for p in run_dir.iterdir())
        out["files_written"] = len(out["digests"])
    finally:
        shutil.rmtree(run_dir)
    out["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]), sys.argv[2])))
