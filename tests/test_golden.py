"""Golden digests: the bytes of small run directories, frozen.

A run directory is a pure function of (kind, params, trials, seed), so a
change that keeps every digest below has not changed what any experiment
computes.  The cases cover every experiment kind and every adversary,
algorithm and learner the harness accepts, with raw traces on, plus one
coupling run with enough traces for ``summarize`` to parse ``traces.jsonl``
and add the chi-square marginals.

The digests depend on the numpy random streams and float formatting; they
were frozen with numpy 2.4, scipy 1.17 and Python 3.11.  To re-freeze after a
change that is meant to alter outputs, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py --freeze
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from smoothlab import harness
from smoothlab.harness import make_config, run_experiment

DIGESTS_PATH = Path(__file__).parent / "golden" / "digests.json"

SEED = 2021

# name -> (kind, params, trials)
CASES: dict[str, tuple[str, dict, int]] = {
    "coupling-stationary": (
        "coupling",
        {"n": 8, "sigma": 0.25, "T": 4, "k": 6, "adversary": "stationary", "set_size": 3},
        20,
    ),
    "coupling-window": (
        "coupling",
        {"n": 8, "sigma": 0.25, "T": 4, "k": 6, "adversary": "window"},
        20,
    ),
    "coupling-last-value": (
        "coupling",
        {"n": 8, "sigma": 0.25, "T": 4, "k": 6, "adversary": "last-value"},
        20,
    ),
    "coupling-window-n7": (
        "coupling",
        {"n": 7, "sigma": 0.3, "T": 5, "k": 4, "adversary": "window"},
        20,
    ),
    "coupling-full-domain": (
        "coupling",
        {"n": 8, "sigma": 0.25, "T": 4, "k": 2, "adversary": "full-domain"},
        20,
    ),
    "coupling-marginals": (
        "coupling",
        {"n": 4, "sigma": 0.5, "T": 2, "k": 3, "adversary": "last-value"},
        harness.MARGINAL_MIN_TRACES,
    ),
    "discrepancy-potential-adaptive-shell": (
        "discrepancy",
        {
            "algorithm": "potential",
            "n": 3,
            "T": 40,
            "adversary": "adaptive-shell",
            "sigma": 0.25,
            "M": 64,
        },
        3,
    ),
    "discrepancy-selfbalancing-uniform-ball": (
        "discrepancy",
        {"algorithm": "selfbalancing", "n": 3, "T": 40, "adversary": "uniform-ball"},
        3,
    ),
    "discrepancy-random-sign-shell": (
        "discrepancy",
        {
            "algorithm": "random-sign",
            "n": 3,
            "T": 40,
            "adversary": "shell",
            "sigma": 0.5,
            "inner": 0.5,
        },
        3,
    ),
    "lowerbound-potential": (
        "discrepancy-lowerbound",
        {"algorithm": "potential", "n": 3, "T": 40, "M": 64},
        3,
    ),
    "lowerbound-selfbalancing": (
        "discrepancy-lowerbound",
        {"algorithm": "selfbalancing", "n": 3, "T": 40},
        3,
    ),
    "lowerbound-random-sign": (
        "discrepancy-lowerbound",
        {"algorithm": "random-sign", "n": 3, "T": 40},
        3,
    ),
    "learning-hedge-stationary-smooth": (
        "learning",
        {"m": 16, "d": 2, "T": 40, "learner": "hedge-on-cover", "adversary": "stationary-smooth"},
        3,
    ),
    "learning-ftl-mistake-tree": (
        "learning",
        {"m": 16, "d": 2, "T": 40, "learner": "ftl-on-cover", "adversary": "mistake-tree"},
        3,
    ),
    "learning-hedge-realizable": (
        "learning",
        {"m": 16, "d": 2, "T": 40, "learner": "hedge-on-cover", "adversary": "realizable"},
        3,
    ),
    # beta=0.2 gives spacing floor(0.2 * 64 / 4) = 3: each block grid skips thresholds.
    "learning-hedge-coarse-cover": (
        "learning",
        {
            "m": 64,
            "d": 4,
            "T": 40,
            "beta": 0.2,
            "learner": "hedge-on-cover",
            "adversary": "stationary-smooth",
        },
        3,
    ),
    "dispersion-iid-uniform": (
        "dispersion",
        {"T": 20, "ell": 2, "sigma": 0.2, "adversary": "iid-uniform"},
        3,
    ),
    "dispersion-fixed-interval": (
        "dispersion",
        {"T": 20, "ell": 2, "sigma": 0.2, "adversary": "fixed-interval", "lo": 0.3},
        3,
    ),
    "dispersion-densest-window": (
        "dispersion",
        {"T": 20, "ell": 2, "sigma": 0.2, "adversary": "densest-window"},
        3,
    ),
}


def run_digests(name: str, out_dir: Path) -> dict[str, str]:
    """sha256 of every file the case's run directory holds, by file name."""
    kind, params, trials = CASES[name]
    run_dir = out_dir / name
    run_experiment(make_config(kind, params, trials, SEED), run_dir, parallelism=1)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.iterdir())
        if p.is_file()
    }


def _load_frozen() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text())


def test_cases_cover_every_harness_option():
    seen: dict[str, set] = {}
    for kind, params, _ in CASES.values():
        for key in ("adversary", "algorithm", "learner"):
            if key in params:
                seen.setdefault(f"{kind}.{key}", set()).add(params[key])
    assert {kind for kind, _, _ in CASES.values()} == set(harness.KINDS)
    options = {
        f"{kind}.{key}": set(table)
        for kind, spec in harness.KINDS.items()
        for key, table in spec.options.items()
    }
    assert set(seen) == set(options)
    for name, values in options.items():
        assert seen[name] == values, name
    assert set(_load_frozen()) == set(CASES)


def test_constructor_resolves_like_make_config():
    for kind, params, trials in CASES.values():
        built = harness.ExperimentConfig(kind, params, trials, SEED)
        assert built == make_config(kind, params, trials, SEED)
        # Resolved params resolve to themselves.
        assert harness.ExperimentConfig(kind, built.params, trials, SEED) == built


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    assert run_digests(name, tmp_path) == _load_frozen()[name]


def freeze() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_digests(name, Path(tmp)) for name in sorted(CASES)}
    DIGESTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --freeze")
    freeze()
