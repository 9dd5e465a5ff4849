"""Tests for the experiment runner, summaries, comparisons, and the CLI.

The reproducibility contract under test: a run directory is a pure function
of (kind, params, trials, seed).  Rerunning, or changing the parallelism
degree, must reproduce every persisted byte, and summarize() applied to the
persisted files must reproduce summary.json exactly.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import dataclasses
import importlib
import inspect
import json
import math
import pickle
import pkgutil
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab.cli import build_parser, main as cli_main
from smoothlab.discrepancy import (
    adaptive_shell_adversary,
    run_discrepancy,
    uniform_ball_adversary,
)
from smoothlab.dispersion import (
    check_dispersed,
    dispersion_bound,
    generate_discontinuities,
    iid_uniform_adversary,
)
from smoothlab.domain import RngStream, ValidationError
from smoothlab.harness import (
    ExperimentConfig,
    assert_report,
    compare_runs,
    default_run_dir,
    make_config,
    run_experiment,
    summarize,
    summary_to_json,
)
from smoothlab import coupling, harness, learning
from smoothlab.learning import ThresholdUnionClass, stationary_smooth_adversary
from smoothlab.stats import bootstrap_ratio_ci, median


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def test_make_config_fills_defaults():
    cfg = make_config("coupling", {"n": 8, "sigma": 0.25, "T": 4}, trials=3, seed=0)
    assert cfg.params["k"] > 0
    assert cfg.params["adversary"] == "window"

    cfg = make_config("learning", {"sigma": 1 / 16, "d": 2, "T": 64}, trials=1, seed=0)
    assert cfg.params["m"] == 16
    assert cfg.params["beta"] == pytest.approx((1 / 16) * math.sqrt(2) / 8.0)
    assert cfg.params["flip"] == 0.25

    cfg = make_config("dispersion", {"T": 10, "ell": 2, "sigma": 0.2}, trials=1, seed=0)
    assert cfg.params["w"] == pytest.approx(0.2 * 20 ** (-0.5))
    assert cfg.params["adversary"] == "iid-uniform"

    cfg = make_config("discrepancy-lowerbound", {"algorithm": "random-sign", "n": 3, "T": 10}, 1, 0)
    assert "adversary" not in cfg.params

    # An integral float resolves to the int it equals.
    exact = make_config("coupling", {"n": 8, "sigma": 0.25, "T": 4, "k": 3}, 1, 0)
    assert make_config("coupling", {"n": 8.0, "sigma": 0.25, "T": 4.0, "k": 3.0}, 1, 0) == exact
    assert type(exact.params["n"]) is int


def test_make_config_rejects_bad_input():
    kinds = re.escape(f"expected one of {harness.EXPERIMENT_KINDS}")
    with pytest.raises(ValidationError, match=kinds):
        make_config("bogus", {}, 1, 0)
    with pytest.raises(ValidationError):
        make_config("coupling", {"n": 8, "sigma": 0.25, "T": 4, "mystery": 1}, 1, 0)
    with pytest.raises(ValidationError):
        make_config("coupling", {"n": 8, "sigma": 0.25}, 1, 0)  # T missing
    with pytest.raises(ValidationError):
        make_config("coupling", {"n": 8, "sigma": 0.25, "T": 4, "set_size": 2}, 1, 0)
    with pytest.raises(ValidationError):
        make_config("discrepancy", {"algorithm": "potential", "n": 4, "T": 8, "delta": 0.1}, 1, 0)
    with pytest.raises(ValidationError):
        make_config("discrepancy", {"algorithm": "random-sign", "n": 4, "T": 8, "inner": 0.5}, 1, 0)
    with pytest.raises(ValidationError):
        make_config("learning", {"m": 16, "d": 2, "T": 8, "adversary": "mistake-tree", "flip": 0.1}, 1, 0)
    with pytest.raises(ValidationError):
        make_config("learning", {"d": 2, "T": 8}, 1, 0)  # neither m nor sigma
    with pytest.raises(ValidationError):
        make_config("discrepancy", {"algorithm": ["potential"], "n": 4, "T": 8}, 1, 0)
    with pytest.raises(ValidationError):
        make_config("dispersion", {"T": 10, "ell": 2, "sigma": 0.2, "lo": 0.1}, 1, 0)
    # Integer parameters refuse booleans and fractions instead of truncating.
    for kind, bad in (
        ("coupling", {"k": 2.7}),
        ("coupling", {"n": True}),
        ("coupling", {"T": 8.9}),
        ("discrepancy", {"n": True}),
        ("discrepancy", {"T": 8.9}),
    ):
        with pytest.raises(ValidationError, match="not an integer"):
            make_config(kind, {"n": 8, "sigma": 0.25, "T": 4, **bad}, 1, 0)
    # Float parameters refuse booleans instead of reading them as 1.0 or 0.0.
    shell = {"n": 4, "T": 8, "adversary": "shell"}
    dispersion = {"T": 10, "ell": 2, "sigma": 0.2}
    for kind, params in (
        ("coupling", {"n": 8, "sigma": True, "T": 4}),
        ("discrepancy", {**shell, "sigma": True}),
        ("discrepancy", {**shell, "inner": False}),
        ("discrepancy", {"algorithm": "selfbalancing", "n": 4, "T": 8, "delta": True}),
        ("learning", {"d": 1, "T": 8, "sigma": True}),
        ("learning", {"m": 16, "d": 1, "T": 8, "beta": True}),
        ("learning", {"m": 16, "d": 1, "T": 8, "flip": False}),
        ("dispersion", {**dispersion, "sigma": True}),
        ("dispersion", {**dispersion, "alpha": True}),
        ("dispersion", {**dispersion, "delta": True}),
        ("dispersion", {**dispersion, "w": True}),
        ("dispersion", {**dispersion, "k": True}),
        ("dispersion", {**dispersion, "adversary": "fixed-interval", "lo": False}),
    ):
        with pytest.raises(ValidationError, match="not a real number"):
            make_config(kind, params, 1, 0)
    # Sizes below 1, and configs that only a game's own constructors refuse.
    # A trial with n=0 and random-sign would loop in uniform_ball, so that case
    # is only ever given to make_config.
    for kind, key, value, choices, needle in BAD_GAMES + [
        ("discrepancy", "n", "0", RANDOM_SIGN, "'n'")
    ]:
        params = {**OPTIONAL_NUMERIC[kind][0], **choices, key: json.loads(value)}
        with pytest.raises(ValidationError, match=re.escape(needle)):
            make_config(kind, params, 1, 0)
    coupling = {"n": 8, "sigma": 0.25, "T": 4}
    with pytest.raises(ValidationError, match="trials must be"):
        ExperimentConfig("coupling", coupling, trials=0, seed=0)
    with pytest.raises(ValidationError, match="seed must be"):
        ExperimentConfig("coupling", coupling, trials=1, seed=-1)


def test_make_config_raises_what_a_trial_would():
    cls = ThresholdUnionClass(16, 2)
    for kind, params, build in (
        (
            "learning",
            {"m": 16, "d": 2, "T": 8, "flip": 0.7},
            lambda: stationary_smooth_adversary(cls, flip=0.7),
        ),
        (
            "discrepancy",
            {**RANDOM_SIGN, "n": 4, "T": 8, "adversary": "adaptive-shell", "sigma": 0.0},
            lambda: adaptive_shell_adversary(4, 0.0),
        ),
        (
            "dispersion",
            {"T": 10, "ell": 2, "sigma": 0.2, "w": -1.0},
            lambda: dispersion_bound(10, 2, 0.2, -1.0, 0.05),
        ),
        (
            "dispersion",
            {"T": 10, "ell": 2, "sigma": 0.2, "k": -5.0},
            lambda: check_dispersed(
                generate_discontinuities(
                    iid_uniform_adversary(), 10, 2, 0.2, RngStream(seed=0).generator()
                ),
                k=-5.0,
            ),
        ),
    ):
        with pytest.raises(ValidationError) as from_config:
            make_config(kind, params, 1, 0)
        with pytest.raises(ValidationError) as from_trial:
            build()
        assert str(from_config.value) == str(from_trial.value), kind


def test_make_config_rejects_boolean_trials_and_seed():
    params = {"n": 8, "sigma": 0.25, "T": 4}
    for trials, seed in ((True, 0), (1, False), (True, False)):
        with pytest.raises(ValidationError):
            make_config("coupling", params, trials, seed)


def test_config_params_cannot_change_after_the_check():
    cfg = make_config("coupling", {"n": 4, "sigma": 0.5, "T": 2}, trials=2, seed=0)
    resolved = dict(cfg.params)
    params = cfg.params
    for change in (
        lambda: params.__setitem__("k", 0),
        lambda: params.__delitem__("k"),
        lambda: params.pop("k"),
        lambda: params.popitem(),
        lambda: params.setdefault("set_size", 2),
        lambda: params.update(k=0),
        lambda: params.clear(),
    ):
        with pytest.raises(TypeError):
            change()
    with pytest.raises(TypeError):
        params |= {"k": 0}
    assert cfg.params == resolved
    # The pool pickles the params into every job, read-only on the other side too.
    for copied in (pickle.loads(pickle.dumps(cfg.params)), copy.deepcopy(cfg.params)):
        assert copied == resolved and type(copied) is type(cfg.params)
    payload = {"kind": "coupling", "params": resolved, "seed": 0, "trials": 2}
    assert cfg.to_json() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_learning_rejects_conflicting_m_and_sigma():
    base = {"d": 2, "T": 64}
    with pytest.raises(ValidationError, match="disagree"):
        make_config("learning", {**base, "m": 64, "sigma": 0.5}, 1, 0)
    argv = ["learning", "--param", "m=64", "--param", "sigma=0.5", "--param", "d=2"]
    assert cli_main(argv + ["--param", "T=64"]) == 1
    # Agreeing values resolve exactly as either one alone.
    both = make_config("learning", {**base, "m": 16, "sigma": 1 / 16}, 1, 0)
    assert both == make_config("learning", {**base, "m": 16}, 1, 0)
    assert both == make_config("learning", {**base, "sigma": 1 / 16}, 1, 0)


def test_algorithm_factories_return_the_named_rule():
    adv = uniform_ball_adversary(4)
    for name, factory in harness._ALGORITHMS.items():
        params = make_config("discrepancy", {"algorithm": name, "n": 4, "T": 8}, 1, 0).params
        rule = factory(params, adv.sigma)
        assert rule.name == name
        trace = run_discrepancy(rule, adv, params["T"], RngStream(seed=5))
        assert trace.t_done == 8 and trace.header["algorithm"] == name


def test_learner_option_is_the_learning_table():
    assert harness.KINDS["learning"].options["learner"] is learning.LEARNERS


# kind -> (required params, {optional numeric param: the choices it needs to apply})
OPTIONAL_NUMERIC = {
    "coupling": (
        {"n": 16, "sigma": 0.25, "T": 4},
        {"k": {}, "set_size": {"adversary": "stationary"}},
    ),
    "discrepancy": (
        {"n": 4, "T": 8},
        {
            "M": {},
            "delta": {"algorithm": "selfbalancing"},
            "sigma": {},
            "inner": {"adversary": "shell"},
        },
    ),
    "discrepancy-lowerbound": (
        {"n": 4, "T": 8},
        {"M": {"algorithm": "potential"}, "delta": {"algorithm": "selfbalancing"}},
    ),
    "learning": ({"d": 2, "T": 8}, {"m": {}, "sigma": {}, "beta": {"m": 16}, "flip": {"m": 16}}),
    "dispersion": (
        {"T": 10, "ell": 2, "sigma": 0.2},
        {"alpha": {}, "delta": {}, "w": {}, "k": {}, "lo": {"adversary": "fixed-interval"}},
    ),
}


RANDOM_SIGN = {"algorithm": "random-sign"}
ADAPTIVE_SHELL = {**RANDOM_SIGN, "adversary": "adaptive-shell"}

# (kind, key, value, the choices the value is given with, text the error must
# contain) for values that a size cast or a game's constructors refuse. A cast
# names the parameter quoted; a constructor's check gives its own message.
BAD_GAMES = [
    ("discrepancy", "n", "-3", RANDOM_SIGN, "'n'"),
    ("discrepancy", "T", "0", RANDOM_SIGN, "'T'"),
    ("discrepancy", "n", "0", {"adversary": "shell"}, "'n'"),
    ("discrepancy", "sigma", "0.0", ADAPTIVE_SHELL, "sigma must lie in (0, 1]"),
    ("discrepancy", "sigma", "-1", ADAPTIVE_SHELL, "sigma must lie in (0, 1]"),
    ("discrepancy", "sigma", "7.0", {"adversary": "uniform-ball"}, "'sigma'"),
    ("discrepancy-lowerbound", "n", "0", {}, "'n'"),
    ("discrepancy-lowerbound", "T", "0", {}, "'T'"),
    ("dispersion", "k", "-5", {}, "k must be finite and >= 0"),
    ("dispersion", "k", "NaN", {}, "k must be finite and >= 0"),
    ("dispersion", "w", "2", {}, "w must lie in (0, 1]"),
]


def test_optional_numeric_table_covers_every_kind():
    assert list(OPTIONAL_NUMERIC) == list(harness.KINDS)
    for kind, (required, optional) in OPTIONAL_NUMERIC.items():
        spec = harness.KINDS[kind]
        assert set(spec.params) - set(spec.options) - set(required) == set(optional), kind


# Each optional numeric parameter given null or a non-number, integer
# parameters, optional or required, given a boolean or a fraction, and BAD_GAMES.
@pytest.mark.parametrize(
    "kind,key,value,choices,needle",
    [
        pytest.param(kind, key, value, optional[key], f"{key!r}", id=f"{kind}-{key}-{value}")
        for kind, (_, optional) in OPTIONAL_NUMERIC.items()
        for key in optional
        for value in ("null", "abc")
    ]
    + [
        pytest.param(kind, key, value, {}, f"{key!r}", id=f"{kind}-{key}-{value}")
        for kind, key, value in (
            ("coupling", "k", "2.7"),
            ("discrepancy", "n", "true"),
            ("discrepancy", "T", "8.9"),
        )
    ]
    + [pytest.param(*case, id="-".join((*case[:3], *case[3].values()))) for case in BAD_GAMES],
)
def test_cli_bad_optional_param_is_a_config_error(
    kind, key, value, choices, needle, tmp_path, capsys
):
    argv = [harness.KINDS[kind].command, "--out-dir", str(tmp_path / "run")]
    for name, given in {**OPTIONAL_NUMERIC[kind][0], **choices}.items():
        argv += ["--param", f"{name}={json.dumps(given)}"]
    code = cli_main(argv + ["--param", f"{key}={value}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and needle in err
    assert "Traceback" not in err


def test_rerun_is_byte_identical(tmp_path):
    cfg = make_config(
        "discrepancy",
        {"algorithm": "potential", "n": 4, "T": 32, "adversary": "adaptive-shell", "sigma": 0.25},
        trials=6,
        seed=13,
    )
    run_experiment(cfg, tmp_path / "a", parallelism=1)
    run_experiment(cfg, tmp_path / "b", parallelism=1)
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")


def test_parallelism_is_byte_identical(tmp_path):
    for kind, params in (
        ("coupling", {"n": 8, "sigma": 0.25, "T": 4, "adversary": "last-value"}),
        ("dispersion", {"T": 10, "ell": 2, "sigma": 0.2, "adversary": "densest-window"}),
        ("learning", {"m": 16, "d": 2, "T": 40}),
    ):
        cfg = make_config(kind, params, trials=16, seed=5)
        run_experiment(cfg, tmp_path / f"{kind}-p1", parallelism=1)
        run_experiment(cfg, tmp_path / f"{kind}-p8", parallelism=8)
        assert _dir_bytes(tmp_path / f"{kind}-p1") == _dir_bytes(tmp_path / f"{kind}-p8"), kind


def test_summary_recompute_matches_emitted(tmp_path):
    cfg = make_config("learning", {"m": 32, "d": 2, "T": 60, "adversary": "mistake-tree"}, 4, 21)
    result = run_experiment(cfg, tmp_path / "run", parallelism=1)
    emitted = (tmp_path / "run" / "summary.json").read_text()
    assert summary_to_json(summarize(tmp_path / "run")) == emitted
    assert summary_to_json(result.summary) == emitted


def test_run_experiment_runs_the_config_as_built(tmp_path, monkeypatch):
    # The config resolved its params and built its game once; a run resolves
    # nothing more and builds one game a trial.
    cfg = make_config("coupling", {"n": 4, "sigma": 0.5, "T": 2}, trials=5, seed=0)
    spec = harness.KINDS["coupling"]
    calls = {"resolve": 0, "game": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    counting = dataclasses.replace(
        spec, resolve=counted("resolve", spec.resolve), game=counted("game", spec.game)
    )
    monkeypatch.setitem(harness.KINDS, "coupling", counting)
    result = run_experiment(cfg, tmp_path / "run", parallelism=1)
    assert calls == {"resolve": 0, "game": cfg.trials}
    assert result.config is cfg
    assert result.summary["completed"] == cfg.trials


def test_trial_error_is_recorded_and_run_continues(tmp_path, monkeypatch):
    real = harness.couple_adaptive
    calls = []

    # A serial run plays its trials in order, so the third call is trial 2.
    def flaky(adv, cfg, gen):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("injected trial fault")
        return real(adv, cfg, gen)

    monkeypatch.setattr(harness, "couple_adaptive", flaky)
    cfg = make_config("coupling", {"n": 4, "sigma": 0.5, "T": 2}, trials=5, seed=0)
    result = run_experiment(cfg, tmp_path / "run", parallelism=1)
    assert result.summary["completed"] == 4
    assert result.summary["errors"] == 1
    assert result.summary["error_trials"] == [2]
    rows = [json.loads(line) for line in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
    assert len(rows) == 5
    assert rows[2] == {"trial": 2, "error": "RuntimeError: injected trial fault"}
    assert "contained" in rows[3]
    # The combined trace file only holds the four completed trials.
    traces = (tmp_path / "run" / "traces.jsonl").read_text().strip().splitlines()
    assert len(traces) == 4
    # Any errored trial fails the acceptance check.
    failures = assert_report(cfg.kind, cfg.params, result.summary)
    assert any("errored" in msg for msg in failures)


def test_pool_starts_no_more_workers_than_trials(tmp_path, monkeypatch):
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    # run_experiment imports the pool class only when it starts one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = make_config("coupling", {"n": 4, "sigma": 0.5, "T": 2}, trials=2, seed=0)
    run_experiment(cfg, tmp_path / "p8", parallelism=8)
    run_experiment(cfg, tmp_path / "p1", parallelism=1)
    assert started == [2]
    assert _dir_bytes(tmp_path / "p8") == _dir_bytes(tmp_path / "p1")


def test_coupling_summary_has_failure_rate_with_ci(tmp_path):
    cfg = make_config("coupling", {"n": 8, "sigma": 0.25, "T": 4, "k": 8}, trials=200, seed=3)
    result = run_experiment(cfg, tmp_path / "run", parallelism=1)
    block = result.summary["containment_failure"]
    assert block["n"] == 200
    assert 0.0 <= block["ci_low"] <= block["rate"] <= block["ci_high"] <= 1.0
    assert block["count"] == 200 - result.summary["metrics"]["contained"]["count"]
    # 200 traces are far below the floor for stable chi-square diagnostics.
    assert "marginals" not in result.summary


def test_summarize_rejects_out_of_range_trace_value(tmp_path):
    # traces.jsonl is read back from disk, so summarize() checks it even when
    # the run is too small for the chi-square marginals.
    cfg = make_config("coupling", {"n": 4, "sigma": 0.5, "T": 2}, trials=3, seed=0)
    run_dir = tmp_path / "run"
    run_experiment(cfg, run_dir, parallelism=1)
    path = run_dir / "traces.jsonl"
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["Z"][0][0] = 5
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="trace 2: values outside 1..4"):
        summarize(run_dir)


def _coupling_run_with_failures(tmp_path):
    # k = 4 misses a round with probability 0.75^4, so most traces fail.
    params = {"n": 16, "sigma": 0.25, "T": 8, "k": 4, "adversary": "last-value"}
    run_dir = tmp_path / "run"
    run_experiment(make_config("coupling", params, trials=50, seed=5), run_dir, parallelism=1)
    rows = [json.loads(line) for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
    return run_dir, rows, (run_dir / "traces.jsonl").read_text().splitlines(keepends=True)


def test_summarize_rejects_missing_traces(tmp_path):
    run_dir, _, lines = _coupling_run_with_failures(tmp_path)
    (run_dir / "traces.jsonl").write_text("".join(lines[:-10]))
    with pytest.raises(ValidationError, match="holds 40 traces for 50 completed trials"):
        summarize(run_dir)


def test_summarize_refuses_a_completed_coupling_run_without_its_trace_file(tmp_path):
    run_dir, _, _ = _coupling_run_with_failures(tmp_path)
    (run_dir / "traces.jsonl").unlink()
    with pytest.raises(ValidationError, match="no traces.jsonl in"):
        summarize(run_dir)


def test_coupling_run_whose_every_trial_errored_still_summarizes(tmp_path, monkeypatch):
    def broken(adv, cfg, gen):
        raise RuntimeError("injected trial fault")

    monkeypatch.setattr(harness, "couple_adaptive", broken)
    cfg = make_config("coupling", {"n": 4, "sigma": 0.5, "T": 2}, trials=3, seed=0)
    result = run_experiment(cfg, tmp_path / "run", parallelism=1)
    assert not (tmp_path / "run" / "traces.jsonl").exists()
    assert result.summary["completed"] == 0
    assert result.summary["error_trials"] == [0, 1, 2]
    assert "containment_failure" not in result.summary
    assert summary_to_json(summarize(tmp_path / "run")) == summary_to_json(result.summary)


def test_summarize_rejects_traces_that_contradict_the_metrics(tmp_path):
    run_dir, rows, lines = _coupling_run_with_failures(tmp_path)
    failed = next(r["trial"] for r in rows if not r["contained"])
    kept = next(r["trial"] for r in rows if r["contained"])
    lines[failed] = lines[kept]
    (run_dir / "traces.jsonl").write_text("".join(lines))
    match = f"trace {failed + 1} contradicts the containment flag of trial {failed}"
    with pytest.raises(ValidationError, match=match):
        summarize(run_dir)


def test_summarize_names_the_trial_whose_row_lacks_its_containment_flag(tmp_path):
    run_dir, rows, _ = _coupling_run_with_failures(tmp_path)
    for lacking in ([7], range(len(rows))):
        edited = [
            {k: v for k, v in r.items() if k != "contained" or r["trial"] not in lacking}
            for r in rows
        ]
        (run_dir / "metrics.jsonl").write_text("".join(json.dumps(r) + "\n" for r in edited))
        match = f"trial {min(lacking)} in metrics.jsonl has no 'contained' flag"
        with pytest.raises(ValidationError, match=match):
            summarize(run_dir)


def test_coupling_summary_marginals_block(tmp_path):
    cfg = make_config(
        "coupling", {"n": 4, "sigma": 0.5, "T": 2, "k": 4, "adversary": "last-value"},
        trials=10_000,
        seed=11,
    )
    result = run_experiment(cfg, tmp_path / "run", parallelism=1)
    block = result.summary["marginals"]
    assert block["n_traces"] == 10_000
    assert block["passed"] is True
    assert block["min_cell_pvalue"] > 0.001
    assert block["min_pair_pvalue"] > 0.001
    # Byte-identical recompute also covers the chi-square path.
    assert summary_to_json(summarize(tmp_path / "run")) == (tmp_path / "run" / "summary.json").read_text()


def test_coupling_marginals_with_one_cell(tmp_path):
    # T = 1 and the default k = 1 leave one Z cell, and so no pair to test.
    cfg = make_config("coupling", {"n": 4, "sigma": 0.5, "T": 1}, trials=10_000, seed=0)
    assert cfg.params["k"] == 1
    block = run_experiment(cfg, tmp_path / "run", parallelism=1).summary["marginals"]
    assert block["n_traces"] == 10_000
    assert block["min_pair_pvalue"] is None
    assert block["min_homogeneity_pvalue"] is None
    assert block["passed"] is True


def test_reused_run_dir_drops_stale_raw_files(tmp_path):
    run = tmp_path / "run"
    params = {"algorithm": "random-sign", "n": 4, "T": 30}
    run_experiment(make_config("discrepancy", params, trials=3, seed=2), run)
    assert (run / "trace_0001.csv").is_file()
    (run / "notes.txt").write_text("kept")
    (run / "run_notes.json").write_text("{}")
    run_experiment(make_config("discrepancy", params, trials=1, seed=2), run)
    assert not (run / "trace_0001.csv").exists()
    assert not (run / "run_0002.json").exists()
    assert (run / "notes.txt").read_text() == "kept"
    assert (run / "run_notes.json").is_file()
    fresh = tmp_path / "fresh"
    run_experiment(make_config("discrepancy", params, trials=1, seed=2), fresh)
    owned = {k: v for k, v in _dir_bytes(run).items() if k not in ("notes.txt", "run_notes.json")}
    assert owned == _dir_bytes(fresh)


def test_dispersion_reports_csv_merges_one_header(tmp_path):
    cfg = make_config("dispersion", {"T": 10, "ell": 2, "sigma": 0.2}, trials=4, seed=1)
    run_experiment(cfg, tmp_path / "run", parallelism=1)
    lines = (tmp_path / "run" / "reports.csv").read_text().splitlines()
    assert lines[0] == "w,total,split,bound,pass"
    assert len(lines) == 5
    assert all(not line.startswith("w,") for line in lines[1:])
    assert {p.name for p in (tmp_path / "run").iterdir()} >= {
        "points_0000.jsonl",
        "points_0003.jsonl",
        "reports.csv",
    }


def test_streamed_merge_when_the_first_trial_errors(tmp_path, monkeypatch):
    params = {"T": 10, "ell": 2, "sigma": 0.2}
    cfg = make_config("dispersion", params, trials=4, seed=1)
    run_experiment(cfg, tmp_path / "clean", parallelism=1)
    real = harness.generate_discontinuities
    calls = []

    # A serial run plays its trials in order, so the first call is trial 0.
    def flaky(*args):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("injected trial fault")
        return real(*args)

    monkeypatch.setattr(harness, "generate_discontinuities", flaky)
    run_experiment(cfg, tmp_path / "faulty", parallelism=1)
    clean = (tmp_path / "clean" / "reports.csv").read_text().splitlines(keepends=True)
    faulty = (tmp_path / "faulty" / "reports.csv").read_text()
    # Trial 1's part now opens the file, so its header is the only one.
    assert faulty.count("w,total,split,bound,pass") == 1
    assert faulty == clean[0] + "".join(clean[2:])
    assert not (tmp_path / "faulty" / "points_0000.jsonl").exists()

    # A per-trial kind: the errored trial leaves no file of its own.
    real_run = harness.run_discrepancy
    calls.clear()

    def flaky_run(*args):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("injected trial fault")
        return real_run(*args)

    monkeypatch.setattr(harness, "run_discrepancy", flaky_run)
    cfg = make_config("discrepancy", {"algorithm": "random-sign", "n": 4, "T": 30}, trials=3, seed=2)
    run_experiment(cfg, tmp_path / "disc", parallelism=1)
    names = {p.name for p in (tmp_path / "disc").iterdir()}
    assert {"trace_0000.csv", "run_0000.json", "trace_0002.csv", "run_0002.json"} <= names
    assert not names & {"trace_0001.csv", "run_0001.json"}


_PEAK_AT_SUMMARIZE = """
import os, resource, sys, tempfile

# ru_maxrss survives fork and exec, so this process carries the peak of the
# test runner that started it.  A child forked now starts from this process's
# own small size.
pid = os.fork()
if pid:
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))

from smoothlab import harness
peaks = []
summarize = harness.summarize

def probed(run_dir):
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return summarize(run_dir)

harness.summarize = probed
params = {"n": 16, "sigma": 0.25, "T": 8, "k": 16, "adversary": "last-value"}
cfg = harness.make_config("coupling", params, trials=int(sys.argv[1]), seed=0)
with tempfile.TemporaryDirectory() as tmp:
    harness.run_experiment(cfg, tmp)
print(peaks[0] * (1 if sys.platform == "darwin" else 1024))
"""


def test_peak_memory_does_not_grow_with_the_trial_count():
    # The peak resident size when summarize() is entered: every trial has been
    # played and written, and nothing has been read back yet.  Both runs stay
    # below MARGINAL_MIN_TRACES, so summarize() imports no scipy.
    pytest.importorskip("resource")
    peaks = [
        int(
            subprocess.run(
                [sys.executable, "-c", _PEAK_AT_SUMMARIZE, str(trials)],
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout
        )
        for trials in (1_000, 5_000)
    ]
    assert peaks[1] - peaks[0] < 2 * 2**20, peaks


_GROWTH_ACROSS_COUPLING_SUMMARY = """
import json, os, resource, sys
from pathlib import Path

# Forked for the reason _PEAK_AT_SUMMARIZE gives: a fresh ru_maxrss.
pid = os.fork()
if pid:
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))

import scipy.special  # noqa: F401
from smoothlab import harness

run_dir = Path(sys.argv[1])
cfg = json.loads((run_dir / "config.json").read_text())
if sys.argv[2] == "hook":
    # The summary hook alone: the metric columns are read before the first sample.
    columns, _, completed = harness._read_metrics(run_dir)
    summarize = lambda: harness.KINDS["coupling"].summary_hook(run_dir, cfg, columns, completed)
else:
    summarize = lambda: harness.summarize(run_dir)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
summary = summarize()
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert summary["marginals"]["n_traces"] == cfg["trials"]
print((after - before) * (1 if sys.platform == "darwin" else 1024))
"""


def _synthesize_coupling_run(run_dir: Path, n: int, T: int, k: int, trials: int) -> None:
    # Uniform X and Z, written block by block so the files never sit in memory whole.
    run_dir.mkdir()
    params = {"n": n, "sigma": 0.5, "T": T, "k": k, "adversary": "last-value", "set_size": None}
    cfg = {"kind": "coupling", "params": params, "seed": 0, "trials": trials}
    (run_dir / "config.json").write_text(json.dumps(cfg))
    gen = RngStream(seed=233).generator()
    traces_path, rows_path = run_dir / "traces.jsonl", run_dir / "metrics.jsonl"
    with open(traces_path, "w") as traces, open(rows_path, "w") as rows:
        for start in range(0, trials, 1000):
            X = gen.integers(1, n + 1, size=(1000, T))
            Z = gen.integers(1, n + 1, size=(1000, T, k))
            contained = (Z == X[:, :, None]).any(axis=2).all(axis=1)
            for i, (x, z, c) in enumerate(zip(X.tolist(), Z.tolist(), contained.tolist())):
                flag = "true" if c else "false"
                traces.write(f'{{"X": {x}, "Z": {z}, "contained": {flag}}}\n')
                rows.write(json.dumps({"trial": start + i, "contained": c}) + "\n")


@pytest.fixture(scope="module")
def coupling_runs_10k_and_40k(tmp_path_factory):
    base = tmp_path_factory.mktemp("coupling-runs")
    for trials in (10_000, 40_000):
        _synthesize_coupling_run(base / str(trials), n=16, T=4, k=8, trials=trials)
    return [base / "10000", base / "40000"]


def _summary_growth(run_dirs, part: str, repeats: int = 1) -> list[int]:
    """The peak growth, in bytes, across ``part`` of each run's summary: the least
    of ``repeats`` fresh processes, since allocator noise only adds to a peak."""
    return [
        min(
            int(
                subprocess.run(
                    [sys.executable, "-c", _GROWTH_ACROSS_COUPLING_SUMMARY, str(run_dir), part],
                    capture_output=True,
                    text=True,
                    check=True,
                    timeout=120,
                ).stdout
            )
            for _ in range(repeats)
        )
        for run_dir in run_dirs
    ]


def test_coupling_summary_memory_is_about_a_byte_per_cell(coupling_runs_10k_and_40k):
    # From 10,000 to 40,000 traces of T * k = 32 cells, the one-byte Z grows by
    # 0.9 MiB, and the peak, which also holds the chunks while they are joined,
    # grew by 2.6-3.9 MiB.  Reading the text whole into int64 arrays grew it by
    # 19.3 MiB.  scipy.special is imported and the metric columns are read
    # before the first sample, so neither counts.
    pytest.importorskip("resource")
    growth = _summary_growth(coupling_runs_10k_and_40k, "hook")
    assert growth[1] - growth[0] < 8 * 2**20, growth


def test_summarize_memory_grows_by_columns_not_rows(coupling_runs_10k_and_40k):
    # The whole summarize() call, metrics.jsonl included: from 10,000 to 40,000
    # trials its peak grew by 2.5-3.9 MiB with metric columns, and by 11.5-14.2
    # MiB when every metrics row was kept as a dict of its own.  One sample in
    # twenty read 6.1 MiB, so each size takes the least of three.
    pytest.importorskip("resource")
    growth = _summary_growth(coupling_runs_10k_and_40k, "summarize", repeats=3)
    assert growth[1] - growth[0] < 6 * 2**20, growth


def test_compare_identical_runs_gives_ratio_exactly_one(tmp_path):
    cfg = make_config("discrepancy", {"algorithm": "random-sign", "n": 4, "T": 30}, 8, 2)
    run_experiment(cfg, tmp_path / "a", parallelism=1)
    run_experiment(cfg, tmp_path / "b", parallelism=1)
    report = compare_runs(tmp_path / "a", tmp_path / "b", "max_inf")
    assert report["ratio"] == 1.0
    assert report["median_a"] == report["median_b"]
    assert report["ci_low"] <= 1.0 <= report["ci_high"]
    # Same seed reproduces the interval; the report is deterministic.
    again = compare_runs(tmp_path / "a", tmp_path / "b", "max_inf")
    assert again == report


def test_compare_missing_metric_and_zero_median(tmp_path):
    cfg_a = make_config("discrepancy", {"algorithm": "random-sign", "n": 4, "T": 30}, 5, 2)
    cfg_b = make_config("learning", {"m": 16, "d": 2, "T": 30}, 5, 2)
    run_experiment(cfg_a, tmp_path / "a", parallelism=1)
    run_experiment(cfg_b, tmp_path / "b", parallelism=1)
    with pytest.raises(ValidationError, match="available"):
        compare_runs(tmp_path / "a", tmp_path / "b", "max_inf")
    with pytest.raises(ValidationError, match="available"):
        compare_runs(tmp_path / "a", tmp_path / "b", "no_such_metric")
    # "failed" is False in every random-sign trial, so its median is zero.
    with pytest.raises(ValidationError, match="zero"):
        compare_runs(tmp_path / "a", tmp_path / "a", "failed")


def _row_dicts(run_dir: Path) -> list[dict]:
    with open(run_dir / "metrics.jsonl") as lines:
        return [json.loads(line) for line in lines if line.strip()]


def _summary_from_row_dicts(run_dir: Path) -> dict:
    """summarize() as it was when every metrics row was kept as a dict: the
    reference for the column reader, for a kind with no summary hook."""
    cfg = json.loads((run_dir / "config.json").read_text())
    rows = _row_dicts(run_dir)
    good = [r for r in rows if "error" not in r]
    keys = sorted({k for r in good for k in r} - {"trial"})
    metrics = {}
    for key in keys:
        values = [r[key] for r in good if key in r]
        if values and all(isinstance(v, bool) for v in values):
            metrics[key] = harness._rate_block(sum(values), len(values))
        else:
            arr = np.asarray([float(v) for v in values])
            metrics[key] = {
                "mean": float(arr.mean()),
                "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                "median": median(arr),
                "min": float(arr.min()),
                "max": float(arr.max()),
                "n": int(arr.size),
            }
    return {
        "kind": cfg["kind"],
        "seed": cfg["seed"],
        "trials": cfg["trials"],
        "completed": len(good),
        "errors": len(rows) - len(good),
        "error_trials": [r["trial"] for r in rows if "error" in r],
        "metrics": metrics,
    }


def _compare_from_row_dicts(run_a: Path, run_b: Path, metric: str, n_resamples: int) -> dict:
    """compare_runs() as it was when every metrics row was kept as a dict."""
    values = []
    for run_dir in (run_a, run_b):
        rows = [r for r in _row_dicts(run_dir) if "error" not in r]
        available = sorted({k for r in rows for k in r} - {"trial"})
        vals = [float(r[metric]) for r in rows if metric in r]
        if not vals:
            raise ValidationError(
                f"metric {metric!r} absent from {run_dir}; available: {available}"
            )
        values.append(np.asarray(vals))
    a, b = values
    median_a, median_b = median(a), median(b)
    if median_b == 0.0:
        raise ValidationError(f"median of {metric!r} in run B is zero; ratio undefined")
    ci_low, ci_high = bootstrap_ratio_ci(
        a, b, RngStream(seed=0, stream_id=0).generator(), n_resamples=n_resamples
    )
    return {
        "metric": metric,
        "n_a": int(a.size),
        "n_b": int(b.size),
        "median_a": median_a,
        "median_b": median_b,
        "ratio": median_a / median_b,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "n_resamples": n_resamples,
        "seed": 0,
    }


_METRIC_VALUE = st.one_of(
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(-1e6, 1e6, allow_nan=False),
)
_METRIC_ROW = st.dictionaries(st.sampled_from(("a", "b", "c", "ok")), _METRIC_VALUE, max_size=4)
# Each line: a completed row, an error row (which may carry other keys too),
# or a blank line.
_METRICS_LINE = st.one_of(
    _METRIC_ROW.map(lambda row: ("row", row)),
    _METRIC_ROW.map(lambda row: ("error", row)),
    st.sampled_from(("\n", "  \n", "\t\n")).map(lambda blank: ("blank", blank)),
)


def _write_metrics(run_dir: Path, lines: list) -> None:
    run_dir.mkdir()
    config = {"kind": "dispersion", "params": {}, "seed": 3, "trials": len(lines)}
    (run_dir / "config.json").write_text(json.dumps(config))
    text = []
    for trial, (what, value) in enumerate(lines):
        if what == "blank":
            text.append(value)
        else:
            row = {"trial": trial, **value}
            if what == "error":
                row["error"] = "RuntimeError: injected"
            text.append(json.dumps(row) + "\n")
    (run_dir / "metrics.jsonl").write_text("".join(text))


def _outcome(call):
    try:
        return call()
    except (ValidationError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=150, deadline=None)
@given(
    lines_a=st.lists(_METRICS_LINE, max_size=12),
    lines_b=st.lists(_METRICS_LINE, max_size=12),
    metric=st.sampled_from(("a", "b", "c", "ok", "trial", "absent")),
)
def test_metric_columns_summarize_and_compare_as_row_dicts(lines_a, lines_b, metric):
    assert harness.KINDS["dispersion"].summary_hook is None
    with tempfile.TemporaryDirectory() as tmp:
        run_a, run_b = Path(tmp) / "a", Path(tmp) / "b"
        _write_metrics(run_a, lines_a)
        _write_metrics(run_b, lines_b)
        for run_dir in (run_a, run_b):
            assert summary_to_json(summarize(run_dir)) == summary_to_json(
                _summary_from_row_dicts(run_dir)
            )
        assert _outcome(lambda: compare_runs(run_a, run_b, metric, n_resamples=16)) == _outcome(
            lambda: _compare_from_row_dicts(run_a, run_b, metric, 16)
        )


@pytest.mark.parametrize(
    "bad",
    ["[1]", '{"error": "x"}', '{"total": 3}', '{"trial": true}'],
    ids=["list", "error-row-without-trial", "row-without-trial", "boolean-trial"],
)
def test_metrics_line_without_an_integer_trial_is_refused(tmp_path, bad):
    run_dir = tmp_path / "run"
    run_experiment(make_config("dispersion", {"T": 10, "ell": 2, "sigma": 0.2}, 3, 0), run_dir)
    with open(run_dir / "metrics.jsonl", "a") as f:
        f.write(bad + "\n")
    message = "metrics.jsonl line 4 is not a JSON object with an integer 'trial'"
    with pytest.raises(ValidationError, match=message):
        summarize(run_dir)
    with pytest.raises(ValidationError, match=message):
        compare_runs(run_dir, run_dir, "total", n_resamples=4)


_COUPLING_10K = {"n": 16, "sigma": 0.25, "T": 8, "k": 16, "adversary": "last-value"}


def test_assert_report_checks_by_kind():
    dispersion_summary = {
        "errors": 0,
        "error_trials": [],
        "completed": 100,
        "metrics": {"within_bound": {"count": 50, "n": 100, "rate": 0.5}},
    }
    failures = assert_report("dispersion", {"T": 10, "ell": 2, "sigma": 0.2}, dispersion_summary)
    assert len(failures) == 1 and "0.5" in failures[0]

    lowerbound_summary = {
        "errors": 0,
        "error_trials": [],
        "completed": 200,
        "metrics": {"ok": {"count": 190, "n": 200, "rate": 0.95}},
    }
    failures = assert_report("discrepancy-lowerbound", {"n": 4, "T": 500}, lowerbound_summary)
    assert len(failures) == 1 and "0.95" in failures[0]

    learning_params = {"T": 1024, "d": 2, "sigma": 1 / 64, "adversary": "mistake-tree"}
    floor = 0.1 * math.sqrt(2 * 1024 * math.log2(32))
    learning_summary = {
        "errors": 0,
        "error_trials": [],
        "completed": 10,
        "metrics": {"regret": {"mean": floor / 2}},
    }
    failures = assert_report("learning", learning_params, learning_summary)
    assert len(failures) == 1 and "below floor" in failures[0]
    learning_summary["metrics"]["regret"]["mean"] = floor * 2
    assert assert_report("learning", learning_params, learning_summary) == []

    def coupling_summary(count: int, n: int) -> dict:
        failure = {"count": count, "n": n}
        return {"errors": 0, "error_trials": [], "completed": n, "containment_failure": failure}

    # Sets of s = 4 of n = 16 points: exact rate q = 1 - (1 - (3/4)^16)^8 = 0.0774238,
    # three stderrs at N = 10,000 are 0.0080, and the union bound's threshold is 0.0883.
    params = make_config("coupling", _COUPLING_10K, 1, 0).params
    assert assert_report("coupling", params, coupling_summary(774, 10_000)) == []
    assert assert_report("coupling", params, coupling_summary(0, 10_000)) == [
        "containment failure rate 0 lies more than 3 stderr (0.00801788) from the exact 0.0774238"
    ]
    # Too many failures, though under the union bound's threshold.
    assert assert_report("coupling", params, coupling_summary(860, 10_000)) == [
        "containment failure rate 0.086 lies more than 3 stderr (0.00801788) "
        "from the exact 0.0774238"
    ]
    # A stationary set of 4 of 8 points, k = 2, T = 1: q = (1/2)^2 = 0.25 exactly.
    stationary = {"n": 8, "sigma": 0.25, "T": 1, "k": 2, "adversary": "stationary"}
    params = make_config("coupling", {**stationary, "set_size": 4}, 1, 0).params
    assert assert_report("coupling", params, coupling_summary(2500, 10_000)) == []
    assert len(assert_report("coupling", params, coupling_summary(2200, 10_000))) == 1
    # The whole domain never fails: q = 0, so one failure fails.
    full = {"n": 8, "sigma": 0.25, "T": 4, "k": 2, "adversary": "full-domain"}
    params = make_config("coupling", full, 1, 0).params
    assert assert_report("coupling", params, coupling_summary(0, 20)) == []
    assert assert_report("coupling", params, coupling_summary(1, 20)) == [
        "containment failure rate 0.05 lies more than 3 stderr (0) from the exact 0"
    ]


def test_assert_fails_a_coupling_whose_x_is_always_a_replica(tmp_path, monkeypatch):
    # X := Z_1 in every round: Z keeps its law, so the marginals pass, and no
    # trace ever fails, against an exact failure rate of 0.0774.
    real = coupling.couple_single_round

    def x_is_the_first_replica(S, k, draws):
        _, z = real(S, k, draws)
        return z[0], z

    monkeypatch.setattr(coupling, "couple_single_round", x_is_the_first_replica)
    cfg = make_config("coupling", _COUPLING_10K, 10_000, 2102)
    summary = run_experiment(cfg, tmp_path / "run", parallelism=1).summary
    assert summary["containment_failure"]["count"] == 0
    assert summary["marginals"]["passed"] is True
    failures = assert_report(cfg.kind, cfg.params, summary)
    assert len(failures) == 1 and "from the exact 0.0774238" in failures[0]


def test_cli_run_assert_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli_main(
        [
            "coupling",
            "--param", "n=8",
            "--param", "sigma=0.25",
            "--param", "T=4",
            "--trials", "50",
            "--seed", "3",
            "--out-dir", str(out),
            "--assert",
        ]
    )
    assert code == 0
    assert (out / "summary.json").is_file()

    # Unknown algorithm is a config error.
    assert cli_main(["discrepancy", "--param", "algorithm=bogus", "--param", "n=4", "--param", "T=8"]) == 1
    # Bad flag usage is also a config error, not an argparse exit 2.
    assert cli_main(["coupling", "--trials", "not-a-number"]) == 1
    assert cli_main(["coupling", "--param", "malformed"]) == 1
    # Every run writes its raw files: no flag skips them.
    capsys.readouterr()
    assert cli_main(["coupling", "--no-traces"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments: --no-traces") and "Traceback" not in err


def test_cli_config_file_with_overrides(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps(
            {
                "kind": "learning",
                "params": {"m": 16, "d": 2, "T": 30, "adversary": "realizable"},
                "trials": 2,
                "seed": 7,
            }
        )
    )
    out = tmp_path / "run"
    code = cli_main(
        ["learning", "--config", str(cfg_file), "--trials", "3", "--out-dir", str(out)]
    )
    assert code == 0
    stored = json.loads((out / "config.json").read_text())
    assert stored["trials"] == 3  # flag override wins
    assert stored["seed"] == 7  # file value survives
    assert stored["params"]["adversary"] == "realizable"

    # Mismatched kind in the file is a config error.
    assert cli_main(["dispersion", "--config", str(cfg_file)]) == 1


def test_cli_config_file_rejects_non_integer_trials_and_seed(tmp_path, capsys):
    params = {"n": 8, "sigma": 0.25, "T": 4}
    for bad in ({"trials": True, "seed": 2.9}, {"trials": True}, {"seed": 2.9}):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"params": params, **bad}))
        argv = ["coupling", "--config", str(cfg_file), "--out-dir", str(tmp_path / "run")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_cli_config_file_refuses_params_that_are_not_an_object(tmp_path, capsys):
    for bad in (5, [["n", 8]], "n=8", None):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"params": bad}))
        argv = ["coupling", "--config", str(cfg_file), "--out-dir", str(tmp_path / "run")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "params" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_cli_compare_ratio_limits(tmp_path):
    cfg = make_config("dispersion", {"T": 10, "ell": 2, "sigma": 0.2}, 6, 1)
    run_experiment(cfg, tmp_path / "a", parallelism=1)
    run_experiment(cfg, tmp_path / "b", parallelism=1)
    base = ["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--metric", "total"]
    assert cli_main(base) == 0
    assert cli_main(base + ["--max-ratio", "1e-9"]) == 2
    assert cli_main(base + ["--min-ratio", "0.5", "--max-ratio", "2.0"]) == 0
    assert cli_main(["compare", str(tmp_path / "a"), str(tmp_path / "missing"), "--metric", "total"]) == 1


def test_cli_compare_refuses_fewer_than_one_resample(tmp_path, capsys):
    cfg = make_config("dispersion", {"T": 10, "ell": 2, "sigma": 0.2}, 6, 1)
    run_experiment(cfg, tmp_path / "a", parallelism=1)
    base = ["compare", str(tmp_path / "a"), str(tmp_path / "a"), "--metric", "total"]
    capsys.readouterr()
    for resamples in ("0", "-3"):
        assert cli_main(base + ["--resamples", resamples]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert "n_resamples" in captured.err and resamples in captured.err
        assert captured.out == ""


def test_cli_env_var_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SMOOTHLAB_OUT_DIR", str(tmp_path / "base"))
    code = cli_main(
        ["dispersion", "--param", "T=10", "--param", "ell=2", "--param", "sigma=0.2", "--seed", "4"]
    )
    assert code == 0
    assert (tmp_path / "base" / "dispersion-seed4" / "summary.json").is_file()
    assert default_run_dir("coupling", 9, base="elsewhere") == "elsewhere/coupling-seed9"


README = Path(__file__).resolve().parent.parent / "README.md"

# A value for every parameter the README lists as required, except m (the
# learning row takes m or sigma; sigma stands in for both).
REQUIRED_VALUES = {"n": 4, "sigma": 0.25, "T": 8, "d": 2, "ell": 2}


def _readme_kinds_table() -> dict:
    """kind -> (subcommand, required params, optional params, choices) from README.md."""

    def ticked(text):
        return re.findall(r"`([^`]+)`", text)

    def unbracket(text):
        while re.search(r"\([^()]*\)", text):
            text = re.sub(r"\([^()]*\)", "", text)
        return text

    table = {}
    for line in README.read_text().splitlines():
        if not line.startswith("| `"):
            continue
        kind_cell, required, optional, _ = (c.strip() for c in line.strip("|").split("|"))
        names = ticked(kind_cell)
        choices = {
            key: [default, *ticked(others)]
            for key, default, others in re.findall(
                r"`([\w-]+)` \(`([\w-]+)`; also ([^)]*)\)", optional
            )
        }
        table[names[0]] = (names[-1], ticked(unbracket(required)), ticked(unbracket(optional)), choices)
    return table


def test_readme_kinds_table_matches_registry():
    table = _readme_kinds_table()
    assert list(table) == list(harness.KINDS)
    for kind, (command, required, optional, choices) in table.items():
        spec = harness.KINDS[kind]
        assert command == spec.command, kind
        assert set(required) | set(optional) == set(spec.params), kind
        assert {key: set(values) for key, values in choices.items()} == {
            key: set(options) for key, options in spec.options.items()
        }, kind
        # The required params suffice, each one is needed, and the listed defaults hold.
        given = {name: REQUIRED_VALUES[name] for name in required if name in REQUIRED_VALUES}
        resolved = make_config(kind, given, 1, 0).params
        for key, values in choices.items():
            assert resolved[key] == values[0], (kind, key)
        for name in given:
            with pytest.raises(ValidationError):
                make_config(kind, {k: v for k, v in given.items() if k != name}, 1, 0)

    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    commands = {spec.command for spec in harness.KINDS.values()}
    assert set(subparsers.choices) == commands | {"compare"}


def _package_modules():
    import smoothlab

    return [smoothlab] + [
        importlib.import_module(f"smoothlab.{info.name}")
        for info in pkgutil.iter_modules(smoothlab.__path__)
    ]


def test_every_all_entry_resolves():
    checked = [module for module in _package_modules() if hasattr(module, "__all__")]
    assert len(checked) >= 7
    for module in checked:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_no_public_parameter_takes_either_a_stream_or_a_generator():
    # A function that records its stream takes an RngStream; every other
    # drawing function takes its caller's Generator.  None takes both.
    public = {
        f"{module.__name__}.{name}": getattr(module, name)
        for module in _package_modules()
        for name in getattr(module, "__all__", ())
    }
    # Exception classes have no signature of their own to inspect.
    callables = {
        where: obj
        for where, obj in public.items()
        if inspect.isfunction(obj) or (inspect.isclass(obj) and not issubclass(obj, Exception))
    }
    assert "smoothlab.coupling.couple_adaptive" in callables
    either = [
        f"{where}({param.name})"
        for where, obj in callables.items()
        for param in inspect.signature(obj).parameters.values()
        if "RngStream" in str(param.annotation) and "Generator" in str(param.annotation)
    ]
    assert either == []
