"""Tests for the experiment runner, summaries, comparisons, and the CLI.

The reproducibility contract under test: a run directory is a pure function
of (kind, params, trials, seed).  Rerunning, or changing the parallelism
degree, must reproduce every persisted byte, and summarize() applied to the
persisted files must reproduce summary.json exactly.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import pkgutil
import re
from pathlib import Path

import pytest

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
from smoothlab import harness, learning
from smoothlab.learning import ThresholdUnionClass, stationary_smooth_adversary


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
    with pytest.raises(ValidationError):
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
    with pytest.raises(ValidationError):
        ExperimentConfig("coupling", {}, trials=0, seed=0)
    with pytest.raises(ValidationError):
        ExperimentConfig("coupling", {}, trials=1, seed=-1)


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
                generate_discontinuities(iid_uniform_adversary(), 10, 2, 0.2, RngStream(seed=0)),
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


def test_trial_error_is_recorded_and_run_continues(tmp_path, monkeypatch):
    real = harness.couple_adaptive

    def flaky(adv, cfg, rng):
        if rng.stream_id == 2:
            raise RuntimeError("injected trial fault")
        return real(adv, cfg, rng)

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

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
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


def test_no_traces_skips_raw_files(tmp_path):
    cfg = make_config("dispersion", {"T": 10, "ell": 2, "sigma": 0.2}, trials=3, seed=1)
    run_experiment(cfg, tmp_path / "run", parallelism=1, write_traces=False)
    names = {p.name for p in (tmp_path / "run").iterdir()}
    assert names == {"config.json", "metrics.jsonl", "summary.json"}


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

    # A coupling rerun without traces must not leave an old traces.jsonl for summarize().
    cfg = make_config("coupling", {"n": 4, "sigma": 0.5, "T": 2}, trials=4, seed=0)
    run_experiment(cfg, tmp_path / "coupling")
    run_experiment(cfg, tmp_path / "coupling", write_traces=False)
    assert not (tmp_path / "coupling" / "traces.jsonl").exists()


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


def test_cli_run_assert_and_exit_codes(tmp_path):
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


def test_cli_compare_ratio_limits(tmp_path):
    cfg = make_config("dispersion", {"T": 10, "ell": 2, "sigma": 0.2}, 6, 1)
    run_experiment(cfg, tmp_path / "a", parallelism=1)
    run_experiment(cfg, tmp_path / "b", parallelism=1)
    base = ["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--metric", "total"]
    assert cli_main(base) == 0
    assert cli_main(base + ["--max-ratio", "1e-9"]) == 2
    assert cli_main(base + ["--min-ratio", "0.5", "--max-ratio", "2.0"]) == 0
    assert cli_main(["compare", str(tmp_path / "a"), str(tmp_path / "missing"), "--metric", "total"]) == 1


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


def test_every_all_entry_resolves():
    import smoothlab

    modules = [smoothlab] + [
        importlib.import_module(f"smoothlab.{info.name}")
        for info in pkgutil.iter_modules(smoothlab.__path__)
    ]
    checked = [module for module in modules if hasattr(module, "__all__")]
    assert len(checked) >= 7
    for module in checked:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
