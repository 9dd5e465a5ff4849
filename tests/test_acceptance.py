"""Acceptance suite: eleven statistical and exactness criteria at fixed seeds.

Every criterion runs at the exact configuration it states, prints one
[ACCEPTANCE n] PASS/FAIL line with the measured quantities, and asserts both
the check and its runtime budget.  Seeds are frozen: each chi-square family
tests a hundred-plus true null hypotheses at the 0.001 level, so an unlucky
seed could produce a false rejection; pinning the seed makes every criterion
a deterministic regression check.  Calibrated margins at these seeds are
recorded inline next to each assertion.

Criteria 1 and 2 share one coupling run of 50,000 traces at
(n, sigma, T, k) = (16, 0.25, 8, 16) against the last-value adversary; its
wall time, summary included, is attributed to criterion 1, and criterion 2
adds only its own checks and its two micro runs.

Criteria 1, 2, 4-8 and 10 are harness runs: each builds its configs with
``make_config``, runs them with ``run_experiment`` at parallelism 2, requires
``assert_report`` to pass, and reads its values from the runs' summaries.
Their lines end with the kind, seed and trials, so the command line
reproduces any of them, e.g. acceptance 1:

    smoothlab coupling --param n=16 --param sigma=0.25 --param T=8 --param k=16 \\
        --param adversary=last-value --trials 50000 --seed 1001 --assert

Criteria 3 and 9 call library functions directly, and 11 byte-compares run
directories.
"""

from __future__ import annotations

import math
import shutil
import time

import numpy as np
import pytest

from smoothlab.coupling import (
    CouplingConfig,
    _sample_pairs,
    containment_bound,
    enumerate_containment_probability,
    last_value_adversary,
)
from smoothlab.discrepancy import SelfBalancingConfig
from smoothlab.dispersion import max_interval_count, max_interval_count_brute
from smoothlab.domain import (
    FiniteDomain,
    RngStream,
    decompose_smooth,
    min_support_size,
    random_smooth_pmf,
)
from smoothlab.harness import assert_report, make_config, run_experiment
from smoothlab.learning import (
    ThresholdUnionClass,
    best_in_hindsight,
    best_in_hindsight_brute,
    build_cover,
    net_error,
    net_error_brute,
)
from smoothlab.stats import one_sided_bound_check


def _harness_runs(tmp_path, kind: str, runs: dict, trials: int, seed: int):
    """Each named params dict run as make_config(kind, params, trials, seed) at
    parallelism 2, with assert_report's checks required to pass; returns the
    summaries by name.  The run directories are deleted: acceptance 4's alone
    hold about 140 MB of traces, and acceptance 1's traces.jsonl about 26 MB."""
    summaries = {}
    for name, params in runs.items():
        cfg = make_config(kind, params, trials, seed)
        run = run_experiment(cfg, tmp_path / f"{kind}-{seed}-{name}", parallelism=2)
        shutil.rmtree(run.run_dir)
        failures = assert_report(kind, cfg.params, run.summary)
        assert not failures, f"{kind} {name} at seed {seed}: {failures}"
        summaries[name] = run.summary
    return summaries


@pytest.fixture(scope="module")
def coupling_run(tmp_path_factory):
    """The summary of 50,000 coupled traces at (16, 0.25, 8, 16) against the
    adaptive chaser, and the run's wall time."""
    start = time.time()
    runs = {"chaser": {"n": 16, "sigma": 0.25, "T": 8, "k": 16, "adversary": "last-value"}}
    out = tmp_path_factory.mktemp("acceptance")
    summary = _harness_runs(out, "coupling", runs, 50_000, 1001)["chaser"]
    return summary, time.time() - start


def test_acceptance_1_coupling_marginals(coupling_run, acceptance_report):
    summary, elapsed = coupling_run
    # The cell pairs the summary's marginals test (n_pairs=20, pair_seed=0).
    n_cross = sum(1 for (a, b) in _sample_pairs(8, 16, 20, 0) if a[0] != b[0])
    marginals = summary["marginals"]
    min_cell = marginals["min_cell_pvalue"]
    min_pair = marginals["min_pair_pvalue"]
    min_homog = marginals["min_homogeneity_pvalue"]
    # Calibrated at seed 1001: min cell p = 0.00144, min pair p = 0.0174.
    ok = min_cell > 0.001 and min_pair > 0.001 and n_cross >= 1 and elapsed < 60.0
    line = acceptance_report(
        1,
        ok,
        f"min_cell_p={min_cell:.5f} min_pair_p={min_pair:.5f} "
        f"min_homog_p={min_homog:.5f} cross_round_pairs={n_cross} "
        f"n_traces={marginals['n_traces']} elapsed={elapsed:.1f}s budget=60s "
        "kind=coupling seed=1001 trials=50000",
    )
    assert ok, line


def test_acceptance_2_coupling_containment(tmp_path, coupling_run, acceptance_report):
    summary, _ = coupling_run
    start = time.time()
    T, sigma, k = 8, 0.25, 16
    fail = summary["containment_failure"]
    bound = containment_bound(T, sigma, k)
    check = one_sided_bound_check(fail["count"], fail["n"], bound, z=3.0)

    micro_ok = True
    micro_bits = []
    game = {"n": 2, "sigma": 0.5, "adversary": "last-value"}
    runs = {mT: {**game, "T": mT, "k": mT} for mT in (2, 3)}
    for mT, micro in _harness_runs(tmp_path, "coupling", runs, 20_000, 1002).items():
        mcfg = CouplingConfig(T=mT, k=mT)
        exact = enumerate_containment_probability(last_value_adversary(FiniteDomain(2), 0.5), mcfg)
        estimate = 1.0 - micro["containment_failure"]["rate"]
        stderr = math.sqrt(exact * (1.0 - exact) / 20_000)
        micro_ok = micro_ok and abs(estimate - exact) <= 3.0 * stderr
        micro_bits.append(f"T={mT}:|{estimate:.4f}-{exact:.4f}|<={3 * stderr:.4f}")
    elapsed = time.time() - start

    # Calibrated at seed 1001: rate 0.0768 against threshold 0.0838.
    ok = check.passed and micro_ok and elapsed < 60.0
    line = acceptance_report(
        2,
        ok,
        f"failure_rate={check.rate:.5f} bound={bound:.5f} threshold={check.threshold:.5f} "
        f"micro[{' '.join(micro_bits)}] elapsed={elapsed:.1f}s budget=60s "
        "kind=coupling seed=1001/1002 trials=50000/20000",
    )
    assert ok, line


def test_acceptance_3_decomposition(acceptance_report):
    start = time.time()
    gen = RngStream(seed=1003, stream_id=0).generator()
    grid_n = (2, 3, 4, 5, 8, 16, 17, 32, 64, 128)
    grid_sigma = (0.01, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0)
    worst_l1 = 0.0
    sizes_ok = True
    count = 0
    for i in range(1000):
        n = grid_n[i % len(grid_n)]
        sigma = grid_sigma[(i // len(grid_n)) % len(grid_sigma)]
        method = "mixture" if i % 2 == 0 else "capped"
        pmf = random_smooth_pmf(FiniteDomain(n), sigma, gen, method=method)
        mix = decompose_smooth(pmf)
        floor = min_support_size(sigma, n)
        rebuilt = np.zeros(n)
        for weight, comp in mix.components:
            rebuilt[np.asarray(comp.members) - 1] += weight / comp.size
            sizes_ok = sizes_ok and comp.size >= floor
        worst_l1 = max(worst_l1, float(np.abs(rebuilt - pmf.mass).sum()))
        count += 1
    elapsed = time.time() - start

    # Calibrated at seed 1003: worst L1 error 1.7e-12.
    ok = worst_l1 <= 1e-9 and sizes_ok and count == 1000 and elapsed < 10.0
    line = acceptance_report(
        3,
        ok,
        f"instances={count} worst_l1={worst_l1:.2e} sizes_ok={sizes_ok} "
        f"elapsed={elapsed:.1f}s budget=10s",
    )
    assert ok, line


def test_acceptance_4_discrepancy_upper_bound(tmp_path, acceptance_report):
    start = time.time()
    game = {"n": 8, "adversary": "adaptive-shell", "sigma": 0.25}
    medians = {}
    for algorithm, seed, horizons in (
        ("potential", 1004, (1024, 4096, 16384)),
        ("random-sign", 1005, (1024, 16384)),
    ):
        runs = {T: {**game, "algorithm": algorithm, "T": T} for T in horizons}
        for T, summary in _harness_runs(tmp_path, "discrepancy", runs, 50, seed).items():
            medians[(algorithm, T)] = summary["metrics"]["max_inf"]["median"]
    elapsed = time.time() - start

    growth = medians[("potential", 16384)] / medians[("potential", 1024)]
    vs_random = medians[("potential", 16384)] / medians[("random-sign", 16384)]
    random_ratio = medians[("random-sign", 16384)] / medians[("random-sign", 1024)]
    # Calibrated at seeds 1004/1005: growth 1.147, vs_random 0.027, random 4.26.
    ok = growth <= 2.0 and vs_random <= 0.2 and random_ratio >= 3.0 and elapsed < 600.0
    line = acceptance_report(
        4,
        ok,
        f"potential_median@1024={medians[('potential', 1024)]:.3f} "
        f"@4096={medians[('potential', 4096)]:.3f} "
        f"@16384={medians[('potential', 16384)]:.3f} growth={growth:.3f}(<=2) "
        f"vs_random={vs_random:.3f}(<=0.2) random_ratio={random_ratio:.3f}(>=3) "
        f"elapsed={elapsed:.0f}s budget=600s kind=discrepancy seed=1004/1005 trials=50",
    )
    assert ok, line


def test_acceptance_5_discrepancy_lower_bound(tmp_path, acceptance_report):
    start = time.time()
    runs = {
        algorithm: {"algorithm": algorithm, "n": 4, "T": 500}
        for algorithm in ("potential", "selfbalancing", "random-sign")
    }
    summaries = _harness_runs(tmp_path, "discrepancy-lowerbound", runs, 200, 1009)
    # ok: final squared length at least T/20.
    rates = {algo: summary["metrics"]["ok"]["rate"] for algo, summary in summaries.items()}
    elapsed = time.time() - start

    # Calibrated at seed 1009: 200/200 for all three algorithms.
    ok = all(rate >= 0.99 for rate in rates.values()) and elapsed < 120.0
    line = acceptance_report(
        5,
        ok,
        " ".join(f"{algo}={rate:.3f}" for algo, rate in rates.items())
        + f" floor=0.99 elapsed={elapsed:.0f}s budget=120s"
        " kind=discrepancy-lowerbound seed=1009 trials=200",
    )
    assert ok, line


def test_acceptance_6_selfbalancing_walk(tmp_path, acceptance_report):
    start = time.time()
    n, T = 8, 1000
    cfg = SelfBalancingConfig.default(n, T, 1.0, delta=0.1)
    runs = {"walk": {"algorithm": "selfbalancing", "n": n, "T": T, "adversary": "uniform-ball"}}
    metrics = _harness_runs(tmp_path, "discrepancy", runs, 100, 1006)["walk"]["metrics"]
    failures = metrics["failed"]["count"]
    worst = metrics["max_inf"]["max"]
    elapsed = time.time() - start

    # Calibrated at seed 1006: zero failures, worst running norm 29.4 vs c = 529.6.
    ok = failures == 0 and worst <= cfg.c + 1.0 and elapsed < 60.0
    line = acceptance_report(
        6,
        ok,
        f"failures={failures} worst_inf={worst:.2f} c={cfg.c:.2f} ceiling={cfg.c + 1.0:.2f} "
        f"elapsed={elapsed:.0f}s budget=60s kind=discrepancy seed=1006 trials=100",
    )
    assert ok, line


def test_acceptance_7_learning_upper_bound(tmp_path, acceptance_report):
    start = time.time()
    m, d, sigma = 64, 2, 1.0 / 64
    runs = {T: {"m": m, "d": d, "T": T} for T in (1024, 2048, 4096)}
    summaries = _harness_runs(tmp_path, "learning", runs, 50, 1007)
    means = {T: summary["metrics"]["regret"]["mean"] for T, summary in summaries.items()}
    elapsed = time.time() - start

    ceiling = 5.0 * math.sqrt(4096 * d * math.log(4096 / (d * sigma)))
    per_round = [means[T] / T for T in (1024, 2048, 4096)]
    decreasing = per_round[0] > per_round[1] > per_round[2]
    # Calibrated at seed 1007: means 32.9 / 48.1 / 66.2 against ceiling 1553.5.
    ok = means[4096] <= ceiling and decreasing and elapsed < 300.0
    line = acceptance_report(
        7,
        ok,
        f"mean@1024={means[1024]:.2f} @2048={means[2048]:.2f} @4096={means[4096]:.2f} "
        f"ceiling={ceiling:.1f} per_round_decreasing={decreasing} "
        f"elapsed={elapsed:.0f}s budget=300s kind=learning seed=1007 trials=50",
    )
    assert ok, line


def test_acceptance_8_learning_lower_bound(tmp_path, acceptance_report):
    start = time.time()
    m, d, sigma, T = 64, 2, 1.0 / 64, 4096
    runs = {"tree": {"m": m, "d": d, "T": T, "adversary": "mistake-tree"}}
    summary = _harness_runs(tmp_path, "learning", runs, 50, 1008)["tree"]
    mean_regret = summary["metrics"]["regret"]["mean"]
    elapsed = time.time() - start

    floor = 0.1 * math.sqrt(d * T * math.log2(1.0 / (sigma * d)))
    # Calibrated at seed 1008: mean 38.8 against floor 20.24.
    ok = mean_regret >= floor and elapsed < 300.0
    line = acceptance_report(
        8,
        ok,
        f"mean_regret={mean_regret:.2f} floor={floor:.2f} trials=50 "
        f"elapsed={elapsed:.0f}s budget=300s kind=learning seed=1008",
    )
    assert ok, line


def test_acceptance_9_exact_diagnostics(acceptance_report):
    start = time.time()
    gen = RngStream(seed=1011, stream_id=0).generator()
    net_mismatches = 0
    bih_mismatches = 0
    for _ in range(1000):
        d = int(gen.integers(1, 3))
        m = int(gen.choice([v for v in (2, 4, 8, 16, 32) if v >= d]))
        cls = ThresholdUnionClass(m, d)
        T = int(gen.integers(1, 101))
        xs = gen.integers(1, m + 1, size=T)
        ys = gen.integers(0, 2, size=T)
        cover = build_cover(cls, float(gen.uniform(0.05, 1.0)))
        if net_error(cls, cover, xs) != net_error_brute(cls, cover, xs):
            net_mismatches += 1
        h_fast, loss_fast = best_in_hindsight(cls, xs, ys)
        h_brute, loss_brute = best_in_hindsight_brute(cls, xs, ys)
        if loss_fast != loss_brute or h_fast.gamma != h_brute.gamma:
            bih_mismatches += 1
    elapsed = time.time() - start

    ok = net_mismatches == 0 and bih_mismatches == 0 and elapsed < 60.0
    line = acceptance_report(
        9,
        ok,
        f"instances=1000 net_mismatches={net_mismatches} bih_mismatches={bih_mismatches} "
        f"elapsed={elapsed:.0f}s budget=60s",
    )
    assert ok, line


def test_acceptance_10_dispersion(tmp_path, acceptance_report):
    start = time.time()
    game = {"T": 100, "ell": 5, "sigma": 0.1}
    runs = {
        "iid": {**game, "adversary": "iid-uniform"},
        "fixed": {**game, "adversary": "fixed-interval", "lo": 0.3},
        "adaptive": {**game, "adversary": "densest-window"},
    }
    summaries = _harness_runs(tmp_path, "dispersion", runs, 200, 1010)
    # within_bound: the total window count at most the dispersion bound.
    rates = {name: summ["metrics"]["within_bound"]["rate"] for name, summ in summaries.items()}

    gen = RngStream(seed=1012, stream_id=0).generator()
    sweep_mismatches = 0
    for _ in range(1000):
        count = int(gen.integers(1, 61))
        if gen.random() < 0.5:
            points = gen.random(count)
        else:
            points = gen.integers(0, 12, size=count) / 12.0
        fn = gen.integers(0, max(1, count // 3) + 1, size=count)
        w = float(gen.uniform(0.01, 1.0))
        if max_interval_count(points, w, fn) != max_interval_count_brute(points, w, fn):
            sweep_mismatches += 1
    elapsed = time.time() - start

    # Calibrated at seed 1010: 200/200 within the bound for every adversary.
    ok = all(rate >= 0.95 for rate in rates.values()) and sweep_mismatches == 0 and elapsed < 120.0
    line = acceptance_report(
        10,
        ok,
        " ".join(f"{name}={rate:.3f}" for name, rate in rates.items())
        + f" floor=0.95 sweep_mismatches={sweep_mismatches} "
        f"elapsed={elapsed:.0f}s budget=120s kind=dispersion seed=1010 trials=200",
    )
    assert ok, line


def test_acceptance_11_reproducibility(tmp_path, acceptance_report):
    start = time.time()
    experiments = (
        ("coupling", {"n": 8, "sigma": 0.25, "T": 4, "adversary": "last-value"}, 16),
        (
            "discrepancy",
            {"algorithm": "potential", "n": 4, "T": 48, "adversary": "adaptive-shell", "sigma": 0.25},
            8,
        ),
        ("discrepancy-lowerbound", {"algorithm": "random-sign", "n": 3, "T": 40}, 8),
        ("learning", {"m": 16, "d": 2, "T": 40}, 8),
        ("dispersion", {"T": 20, "ell": 3, "sigma": 0.1, "adversary": "densest-window"}, 8),
    )
    identical = True
    for kind, params, trials in experiments:
        cfg = make_config(kind, params, trials, seed=1013)
        dirs = []
        for label, parallelism in (("first", 1), ("rerun", 1), ("wide", 8)):
            out = tmp_path / f"{kind}-{label}"
            run_experiment(cfg, out, parallelism=parallelism)
            dirs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        identical = identical and dirs[0] == dirs[1] == dirs[2]
    elapsed = time.time() - start

    ok = identical and elapsed < 60.0
    line = acceptance_report(
        11,
        ok,
        f"kinds=5 runs_per_kind=3 byte_identical={identical} "
        f"elapsed={elapsed:.0f}s budget=60s",
    )
    assert ok, line
