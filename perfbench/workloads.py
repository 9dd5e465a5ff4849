"""The benchmark's workloads: one experiment config each, at two sizes.

A workload is the (kind, params, trials) of one harness run; the seed comes
from the command line.  ``full`` is the size the benchmark measures; ``smoke``
is a much smaller run of the same shape that only exercises the benchmark
itself (see smoke.py).  Rounds per repetition are stated next to each full
size, because run_s is work completed at that size.
"""

from __future__ import annotations

# Seed whose run-directory digests are frozen in digests.json.  It lies
# outside 1001-1013, the seeds the acceptance tests are calibrated on.
DEFAULT_SEED = 2102

WORKLOADS = {
    # 10,000 trials x T=8: 80,000 coupling rounds.  Must stay >= 10,000
    # trials, the threshold at which summarize() re-reads traces.jsonl and
    # runs the chi-square marginals.
    "coupling-10k": {
        "kind": "coupling",
        "params": {"n": 16, "sigma": 0.25, "T": 8, "k": 16, "adversary": "last-value"},
        "full": 10_000,
        "smoke": 200,
    },
    # 8 trials x T=4096: 32,768 potential-rule rounds.
    "discrepancy-potential": {
        "kind": "discrepancy",
        "params": {
            "algorithm": "potential",
            "n": 8,
            "T": 4096,
            "adversary": "adaptive-shell",
            "sigma": 0.25,
            "M": 1024,
        },
        "full": 8,
        "smoke": 2,
        "smoke_params": {"T": 256},
    },
    # 4 trials x T=4096: 16,384 Hedge steps over the N=1024 cover.
    "learning-hedge": {
        "kind": "learning",
        "params": {
            "m": 64,
            "d": 2,
            "T": 4096,
            "learner": "hedge-on-cover",
            "adversary": "stationary-smooth",
        },
        "full": 4,
        "smoke": 2,
        "smoke_params": {"T": 256},
    },
    # 4 trials x T=2000 x ell=5: 40,000 adversarial interval draws.
    "dispersion-densest": {
        "kind": "dispersion",
        "params": {"T": 2000, "ell": 5, "sigma": 0.1, "adversary": "densest-window"},
        "full": 4,
        "smoke": 2,
        "smoke_params": {"T": 200},
    },
}


def spec(name: str, seed: int, size: str = "full") -> dict:
    """The plain-JSON job a workload process receives."""
    w = WORKLOADS[name]
    params = dict(w["params"])
    if size == "smoke":
        params.update(w.get("smoke_params", {}))
    return {
        "workload": name,
        "size": size,
        "kind": w["kind"],
        "params": params,
        "trials": w[size],
        "seed": seed,
    }
