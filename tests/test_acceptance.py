"""Acceptance suite: eleven statistical and exactness criteria at fixed seeds.

Every criterion runs at the exact configuration it states, prints one
[ACCEPTANCE n] PASS/FAIL line with the measured quantities, and asserts both
the check and its runtime budget.  Seeds are frozen: each chi-square family
tests a hundred-plus true null hypotheses at the 0.001 level, so an unlucky
seed could produce a false rejection; pinning the seed makes every criterion
a deterministic regression check.  Calibrated margins at these seeds are
recorded inline next to each assertion.

Criteria 1 and 2 share one batch of 50,000 coupled traces at
(n, sigma, T, k) = (16, 0.25, 8, 16); generation time is attributed to
criterion 1 and criterion 2 adds only its own checks.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from smoothlab.coupling import (
    CouplingConfig,
    containment_bound,
    couple_adaptive,
    enumerate_containment_probability,
    last_value_adversary,
    verify_marginals,
)
from smoothlab.discrepancy import (
    PotentialConfig,
    RandomSign,
    SelfBalancingConfig,
    adaptive_shell_adversary,
    run_discrepancy,
    slab_lowerbound_adversary,
    uniform_ball_adversary,
)
from smoothlab.dispersion import (
    check_dispersed,
    densest_window_adversary,
    fixed_interval_adversary,
    generate_discontinuities,
    iid_uniform_adversary,
    max_interval_count,
    max_interval_count_brute,
)
from smoothlab.domain import (
    FiniteDomain,
    RngStream,
    decompose_smooth,
    min_support_size,
    random_smooth_pmf,
)
from smoothlab.harness import make_config, run_experiment
from smoothlab.learning import (
    ThresholdUnionClass,
    best_in_hindsight,
    best_in_hindsight_brute,
    build_cover,
    mistake_tree_adversary,
    net_error,
    net_error_brute,
    run_learning_game,
    stationary_smooth_adversary,
)
from smoothlab.stats import one_sided_bound_check


@pytest.fixture(scope="module")
def coupling_batch():
    """50,000 coupled traces at (16, 0.25, 8, 16) against the adaptive chaser."""
    n, sigma, T, k = 16, 0.25, 8, 16
    domain = FiniteDomain(n)
    cfg = CouplingConfig(T=T, k=k)
    start = time.time()
    traces = []
    for i in range(50_000):
        adv = last_value_adversary(domain, sigma)
        traces.append(couple_adaptive(adv, cfg, RngStream(seed=1001, stream_id=i).generator()))
    return traces, time.time() - start


def test_acceptance_1_coupling_marginals(coupling_batch, acceptance_report):
    traces, gen_elapsed = coupling_batch
    start = time.time()
    X = np.stack([tr.X for tr in traces])
    Z = np.stack([tr.Z for tr in traces])
    report = verify_marginals(X, Z, 16, n_pairs=20, pair_seed=0)
    elapsed = gen_elapsed + (time.time() - start)

    min_cell = float(report.cell_pvalues.min())
    min_pair = min(report.pair_pvalues)
    min_homog = min(report.homogeneity_pvalues)
    n_cross = sum(1 for (a, b) in report.pairs if a[0] != b[0])
    # Calibrated at seed 1001: min cell p = 0.00144, min pair p = 0.0174.
    ok = min_cell > 0.001 and min_pair > 0.001 and n_cross >= 1 and elapsed < 60.0
    line = acceptance_report(
        1,
        ok,
        f"min_cell_p={min_cell:.5f} min_pair_p={min_pair:.5f} "
        f"min_homog_p={min_homog:.5f} cross_round_pairs={n_cross} "
        f"n_traces={report.n_traces} elapsed={elapsed:.1f}s budget=60s",
    )
    assert ok, line


def test_acceptance_2_coupling_containment(coupling_batch, acceptance_report):
    traces, _ = coupling_batch
    start = time.time()
    T, sigma, k = 8, 0.25, 16
    failures = sum(0 if tr.contained else 1 for tr in traces)
    bound = containment_bound(T, sigma, k)
    check = one_sided_bound_check(failures, len(traces), bound, z=3.0)

    micro_ok = True
    micro_bits = []
    domain2 = FiniteDomain(2)
    for mT, mk in ((2, 2), (3, 3)):
        mcfg = CouplingConfig(T=mT, k=mk)
        exact = enumerate_containment_probability(last_value_adversary(domain2, 0.5), mcfg)
        hits = sum(
            couple_adaptive(
                last_value_adversary(domain2, 0.5),
                mcfg,
                RngStream(seed=1002, stream_id=i).generator(),
            ).contained
            for i in range(20_000)
        )
        estimate = hits / 20_000
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
        f"micro[{' '.join(micro_bits)}] elapsed={elapsed:.1f}s budget=60s",
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


def test_acceptance_4_discrepancy_upper_bound(acceptance_report):
    start = time.time()
    n, sigma, trials = 8, 0.25, 50
    medians: dict[tuple[str, int], float] = {}
    for make_rule, seed, horizons in (
        (lambda adv, T: PotentialConfig.default(adv.n, T, adv.sigma), 1004, (1024, 4096, 16384)),
        (lambda adv, T: RandomSign(), 1005, (1024, 16384)),
    ):
        for T in horizons:
            finals = []
            for i in range(trials):
                adv = adaptive_shell_adversary(n, sigma)
                rule = make_rule(adv, T)
                trace = run_discrepancy(rule, adv, T, RngStream(seed=seed, stream_id=i))
                finals.append(trace.max_inf)
            medians[(rule.name, T)] = float(np.median(finals))
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
        f"elapsed={elapsed:.0f}s budget=600s",
    )
    assert ok, line


def test_acceptance_5_discrepancy_lower_bound(acceptance_report):
    start = time.time()
    n, T, trials = 4, 500, 200
    rates = {}
    for make_rule in (
        lambda adv: PotentialConfig.default(adv.n, T, adv.sigma),
        lambda adv: SelfBalancingConfig.default(adv.n, T, adv.sigma),
        lambda adv: RandomSign(),
    ):
        hits = 0
        for i in range(trials):
            adv = slab_lowerbound_adversary(n, T)
            rule = make_rule(adv)
            trace = run_discrepancy(rule, adv, T, RngStream(seed=1009, stream_id=i))
            if trace.final_two_norm_sq >= T / 20.0:
                hits += 1
        rates[rule.name] = hits / trials
    elapsed = time.time() - start

    # Calibrated at seed 1009: 200/200 for all three algorithms.
    ok = all(rate >= 0.99 for rate in rates.values()) and elapsed < 120.0
    line = acceptance_report(
        5,
        ok,
        " ".join(f"{algo}={rate:.3f}" for algo, rate in rates.items())
        + f" floor=0.99 elapsed={elapsed:.0f}s budget=120s",
    )
    assert ok, line


def test_acceptance_6_selfbalancing_walk(acceptance_report):
    start = time.time()
    n, T = 8, 1000
    cfg = SelfBalancingConfig.default(n, T, 1.0, delta=0.1)
    failures = 0
    worst = 0.0
    for i in range(100):
        adv = uniform_ball_adversary(n)
        trace = run_discrepancy(
            SelfBalancingConfig.default(adv.n, T, adv.sigma),
            adv,
            T,
            RngStream(seed=1006, stream_id=i),
        )
        failures += int(trace.failed)
        if not trace.failed:
            worst = max(worst, trace.max_inf)
    elapsed = time.time() - start

    # Calibrated at seed 1006: zero failures, worst running norm 29.4 vs c = 529.6.
    ok = failures == 0 and worst <= cfg.c + 1.0 and elapsed < 60.0
    line = acceptance_report(
        6,
        ok,
        f"failures={failures} worst_inf={worst:.2f} c={cfg.c:.2f} ceiling={cfg.c + 1.0:.2f} "
        f"elapsed={elapsed:.0f}s budget=60s",
    )
    assert ok, line


def test_acceptance_7_learning_upper_bound(acceptance_report):
    start = time.time()
    cls = ThresholdUnionClass(64, 2)
    trials = 50
    means = {}
    for T in (1024, 2048, 4096):
        beta = cls.sigma * math.sqrt(cls.d) / math.sqrt(T)
        cover = build_cover(cls, beta)
        regrets = []
        for i in range(trials):
            adv = stationary_smooth_adversary(cls)
            ledger = run_learning_game(
                "hedge-on-cover", adv, cover, T, RngStream(seed=1007, stream_id=i)
            )
            regrets.append(ledger.regret)
        means[T] = float(np.mean(regrets))
    elapsed = time.time() - start

    ceiling = 5.0 * math.sqrt(4096 * cls.d * math.log(4096 / (cls.d * cls.sigma)))
    per_round = [means[T] / T for T in (1024, 2048, 4096)]
    decreasing = per_round[0] > per_round[1] > per_round[2]
    # Calibrated at seed 1007: means 32.9 / 48.1 / 66.2 against ceiling 1553.5.
    ok = means[4096] <= ceiling and decreasing and elapsed < 300.0
    line = acceptance_report(
        7,
        ok,
        f"mean@1024={means[1024]:.2f} @2048={means[2048]:.2f} @4096={means[4096]:.2f} "
        f"ceiling={ceiling:.1f} per_round_decreasing={decreasing} "
        f"elapsed={elapsed:.0f}s budget=300s",
    )
    assert ok, line


def test_acceptance_8_learning_lower_bound(acceptance_report):
    start = time.time()
    cls = ThresholdUnionClass(64, 2)
    T = 4096
    beta = cls.sigma * math.sqrt(cls.d) / math.sqrt(T)
    cover = build_cover(cls, beta)
    regrets = []
    for i in range(50):
        adv = mistake_tree_adversary(cls)
        ledger = run_learning_game(
            "hedge-on-cover", adv, cover, T, RngStream(seed=1008, stream_id=i)
        )
        regrets.append(ledger.regret)
    elapsed = time.time() - start

    mean_regret = float(np.mean(regrets))
    floor = 0.1 * math.sqrt(cls.d * T * math.log2(1.0 / (cls.sigma * cls.d)))
    # Calibrated at seed 1008: mean 38.8 against floor 20.24.
    ok = mean_regret >= floor and elapsed < 300.0
    line = acceptance_report(
        8,
        ok,
        f"mean_regret={mean_regret:.2f} floor={floor:.2f} trials=50 "
        f"elapsed={elapsed:.0f}s budget=300s",
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


def test_acceptance_10_dispersion(acceptance_report):
    start = time.time()
    T, ell, sigma = 100, 5, 0.1
    adversaries = {
        "iid": iid_uniform_adversary(),
        "fixed": fixed_interval_adversary(sigma, lo=0.3),
        "adaptive": densest_window_adversary(sigma),
    }
    rates = {}
    for name, adv in adversaries.items():
        within = 0
        for i in range(200):
            sample = generate_discontinuities(
                adv, T, ell, sigma, RngStream(seed=1010, stream_id=i).generator()
            )
            _, report = check_dispersed(sample, alpha=0.5, delta=0.05)
            within += int(report.total <= report.bound)
        rates[name] = within / 200

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
        f"elapsed={elapsed:.0f}s budget=120s",
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
