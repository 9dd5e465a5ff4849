"""Tests for online vector balancing, its adversaries, and diagnostics.

Frozen oracle values:

- the basis-only potential at n=2, d=(1,0), lam=1 is (cosh(1)+1)/2
  (two probes hit the loaded coordinate with argument +-1, two hit the empty
  coordinate with argument 0).
- the self-balancing sign probability is exactly 0 at <d, x> = c, exercised
  with exactly representable floats (d = 1.5*ones(4), x = 0.5*ones(4), c=3).
- the slab coordinate density along the pinned direction is proportional to
  (1 - s^2)^((n-1)/2); the closed-form sampler must agree with from-scratch
  rejection sampling.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from smoothlab.discrepancy import (
    COSH_ARG_LIMIT,
    FAILURE,
    AdversaryViolationError,
    PotentialConfig,
    PotentialOverflowError,
    RandomSign,
    SelfBalancingConfig,
    VectorAdversary,
    _norm,
    adaptive_shell_adversary,
    build_probe_pool,
    check_isotropy,
    choose_sign_potential,
    choose_sign_selfbalancing,
    default_balance_k,
    default_lambda,
    default_threshold,
    make_potential_tail_threshold,
    potential_value,
    run_discrepancy,
    shell_adversary,
    slab_acceptance_rate,
    slab_adversary_next,
    slab_adversary_next_rejection,
    slab_lowerbound_adversary,
    tail_probability_check,
    trace_header_json,
    trace_to_csv,
    uniform_ball,
    uniform_ball_adversary,
    uniform_ball_batch,
)
from smoothlab.domain import RngStream, ValidationError
from smoothlab.learning import (
    ThresholdUnionClass,
    build_cover,
    run_learning_game,
    stationary_smooth_adversary,
)
from smoothlab.stats import binomial_stderr


def _empty_pool(n: int) -> "ProbePool":
    return build_probe_pool(n, 0, RngStream(seed=0))


def _default_rules(adv, T: int) -> tuple:
    """The three sign rules, sized from the adversary's declared smoothness."""
    return (
        PotentialConfig.default(adv.n, T, adv.sigma),
        SelfBalancingConfig.default(adv.n, T, adv.sigma),
        RandomSign(),
    )


def test_defaults_formulas():
    assert default_balance_k(0.25, 16384) == math.ceil(
        400 * math.log(16384 * math.log(16384))
    )
    k = 10
    assert default_lambda(k, 8, 100) == 1.0 / (1000.0 * math.log(k * 8 * 100))
    assert default_threshold(k, 8, 100, 0.1) == 8 * math.pi * math.log(20 * k * 8 * 100 / 0.1)
    with pytest.raises(ValidationError):
        default_balance_k(0.0, 10)
    with pytest.raises(ValidationError):
        default_threshold(1, 1, 1, 1.5)


def test_config_validation():
    with pytest.raises(ValidationError):
        PotentialConfig(lam=0.0, M=16, k=1)
    with pytest.raises(ValidationError):
        PotentialConfig(lam=0.1, M=-1, k=1)
    with pytest.raises(ValidationError):
        SelfBalancingConfig(c=-1.0, delta=0.1)
    cfg = PotentialConfig.default(8, 1024, 0.25)
    assert cfg.lam == default_lambda(cfg.k, 8, 1024)


def test_potential_at_origin_is_one():
    pool = build_probe_pool(4, 64, RngStream(seed=301))
    assert potential_value(np.zeros(4), 0.5, pool) == 1.0


def test_potential_at_lambda_zero_is_one():
    pool = build_probe_pool(4, 64, RngStream(seed=302))
    gen = RngStream(seed=303).generator()
    d = gen.normal(size=4)
    assert potential_value(d, 0.0, pool) == 1.0


def test_potential_basis_only_worked_example():
    pool = _empty_pool(2)
    got = potential_value(np.array([1.0, 0.0]), 1.0, pool)
    assert got == pytest.approx((math.cosh(1.0) + 1.0) / 2.0, rel=1e-15)
    assert got == pytest.approx(1.2715403, abs=1e-7)


def test_potential_mixes_ball_and_basis_halves():
    pool = build_probe_pool(2, 128, RngStream(seed=304))
    d = np.array([1.0, 0.5])
    lam = 0.7
    basis = float(np.cosh(lam * d).mean())
    ball = float(np.cosh(lam * (pool.ball @ d)).mean())
    assert potential_value(d, lam, pool) == pytest.approx(0.5 * basis + 0.5 * ball, rel=1e-15)


def test_potential_is_even_exactly():
    pool = build_probe_pool(6, 256, RngStream(seed=305))
    gen = RngStream(seed=306).generator()
    for _ in range(20):
        d = gen.normal(size=6) * 3.0
        assert potential_value(d, 0.3, pool) == potential_value(-d, 0.3, pool)


def test_potential_overflow_raises():
    pool = _empty_pool(2)
    with pytest.raises(PotentialOverflowError):
        potential_value(np.array([2.0, 0.0]), 400.0, pool)


@pytest.mark.parametrize("lam", [-0.1, math.nan])
def test_potential_rejects_negative_or_nan_lambda(lam):
    with pytest.raises(ValidationError):
        potential_value(np.array([1.0, 0.0]), lam, _empty_pool(2))


def test_choose_sign_potential_prefers_cancellation():
    pool = _empty_pool(2)
    cfg = PotentialConfig(lam=1.0, M=0, k=1)
    d = np.array([2.0, 0.0])
    assert choose_sign_potential(d, np.array([1.0, 0.0]), cfg, pool) == -1
    # Orthogonal input leaves the basis potential tied: +1 by convention.
    assert choose_sign_potential(d, np.array([0.0, 1.0]), cfg, pool) == +1
    # At the origin both signs tie as well.
    assert choose_sign_potential(np.zeros(2), np.array([1.0, 0.0]), cfg, pool) == +1


def test_choose_sign_potential_rejects_long_vectors():
    pool = _empty_pool(2)
    cfg = PotentialConfig(lam=1.0, M=0, k=1)
    with pytest.raises(AdversaryViolationError):
        choose_sign_potential(np.zeros(2), np.array([2.0, 0.0]), cfg, pool)


def test_selfbalancing_unbiased_at_origin():
    cfg = SelfBalancingConfig(c=10.0, delta=0.1)
    gen = RngStream(seed=307).generator()
    x = np.array([1.0, 0.0])
    n_trials = 20_000
    plus = sum(
        1 for _ in range(n_trials) if choose_sign_selfbalancing(np.zeros(2), x, cfg, gen) == 1
    )
    assert abs(plus / n_trials - 0.5) <= 3 * binomial_stderr(0.5, n_trials)


def test_selfbalancing_bias_matches_inner_product():
    # d=(1,0), x=(1,0), c=2: P(+1) = 1/2 - 1/4 = 1/4.
    cfg = SelfBalancingConfig(c=2.0, delta=0.1)
    gen = RngStream(seed=308).generator()
    d = np.array([1.0, 0.0])
    x = np.array([1.0, 0.0])
    n_trials = 20_000
    plus = sum(1 for _ in range(n_trials) if choose_sign_selfbalancing(d, x, cfg, gen) == 1)
    assert abs(plus / n_trials - 0.25) <= 3 * binomial_stderr(0.25, n_trials)


def test_selfbalancing_boundary_inner_product_forces_minus():
    # <d, x> = 3.0 = c exactly, with ||d||_inf = 1.5 < c and ||x||_2 = 1.
    cfg = SelfBalancingConfig(c=3.0, delta=0.1)
    gen = RngStream(seed=309).generator()
    d = np.full(4, 1.5)
    x = np.full(4, 0.5)
    assert float(d @ x) == cfg.c
    for _ in range(500):
        assert choose_sign_selfbalancing(d, x, cfg, gen) == -1


def test_selfbalancing_failure_cases():
    cfg = SelfBalancingConfig(c=3.0, delta=0.1)
    gen = RngStream(seed=310).generator()
    # Inner product beyond c.
    assert choose_sign_selfbalancing(np.full(4, 1.75), np.full(4, 0.5), cfg, gen) is FAILURE
    # Walk already escaped in infinity norm.
    assert choose_sign_selfbalancing(np.array([3.0, 0.0]), np.array([0.0, 1.0]), cfg, gen) is FAILURE


def test_run_discrepancy_single_round():
    adv = uniform_ball_adversary(4)
    for rule in _default_rules(adv, 1):
        tr = run_discrepancy(rule, adv, 1, RngStream(seed=311))
        assert tr.header["algorithm"] == rule.name
        assert tr.t_done == 1
        assert np.allclose(np.abs(tr.d_final), np.abs(tr.X[0]))
        assert tr.inf_norms[0] == pytest.approx(float(np.abs(tr.X[0]).max()))


def test_run_discrepancy_records_the_emitted_vectors():
    ball = uniform_ball_adversary(3)
    for rule in _default_rules(ball, 40):
        emitted = []

        def record(d, t, gen):
            emitted.append(ball.next_vector(d, t, gen))
            return emitted[-1]

        adv = VectorAdversary(n=3, sigma=1.0, next_fn=record, name="recording")
        tr = run_discrepancy(rule, adv, 40, RngStream(seed=339))
        assert tr.t_done == 40, rule.name
        assert tr.X.tobytes() == np.array(emitted).tobytes(), rule.name


def test_probe_pool_and_run_need_a_stream():
    gen = RngStream(seed=340).generator()
    with pytest.raises(ValidationError, match="RngStream"):
        build_probe_pool(3, 8, gen)
    adv = uniform_ball_adversary(3)
    for rule in _default_rules(adv, 4):
        with pytest.raises(ValidationError, match="RngStream"):
            run_discrepancy(rule, adv, 4, gen)
    cls = ThresholdUnionClass(m=16, d=2)
    with pytest.raises(ValidationError, match="RngStream"):
        run_learning_game(
            "hedge-on-cover", stationary_smooth_adversary(cls), build_cover(cls, 0.25), 4, gen
        )


def test_run_discrepancy_validates_inputs():
    adv = uniform_ball_adversary(4)
    with pytest.raises(ValidationError):
        run_discrepancy(PotentialConfig.default(adv.n, 4, adv.sigma), adv, 0, RngStream(seed=312))
    with pytest.raises(ValidationError):
        run_discrepancy("newton", adv, 4, RngStream(seed=312))
    long_adv = VectorAdversary(
        n=2, sigma=1.0, next_fn=lambda d, t, g: np.array([2.0, 0.0])
    )
    with pytest.raises(AdversaryViolationError):
        run_discrepancy(RandomSign(), long_adv, 4, RngStream(seed=312))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_input_vector_is_rejected_in_its_round(bad):
    # A NaN norm fails every comparison, so the check must be "not (norm <= 1)".
    def next_fn(d, t, g):
        return np.array([bad, 0.0]) if t == 3 else np.array([0.5, 0.0])

    adv = VectorAdversary(n=2, sigma=1.0, next_fn=next_fn)
    rules = (PotentialConfig(lam=0.1, M=4, k=1), SelfBalancingConfig(c=10.0, delta=0.1), RandomSign())
    for rule in rules:
        with pytest.raises(AdversaryViolationError, match=repr(bad)):
            run_discrepancy(rule, adv, 5, RngStream(seed=316))
    with pytest.raises(AdversaryViolationError):
        choose_sign_potential(
            np.zeros(2), np.array([bad, 0.0]), PotentialConfig(lam=1.0, M=0, k=1), _empty_pool(2)
        )


def test_vector_norm_is_numpys_bit_for_bit():
    gen = RngStream(seed=317).generator()
    vectors = [np.zeros(0), np.zeros(3), np.array([1e-200, 1e-200]), np.array([1e200, -3e154])]
    for n in gen.integers(1, 40, 200).tolist():
        vectors.append(gen.standard_normal(n) * float(gen.choice([1e-3, 1.0, 1e3])))
    with np.errstate(over="ignore"):
        for v in vectors:
            assert repr(_norm(v)) == repr(float(np.linalg.norm(v)))


@pytest.mark.parametrize(
    "rule",
    ["potential", "random-sign", None, object(), RandomSign, {"lam": 0.1, "M": 0, "k": 1}],
    ids=["name", "baseline-name", "none", "object", "class", "dict"],
)
def test_run_discrepancy_rejects_non_rules(rule):
    with pytest.raises(ValidationError, match="unknown sign rule"):
        run_discrepancy(rule, uniform_ball_adversary(4), 4, RngStream(seed=312))


def test_choose_sign_potential_matches_run():
    # The single-step rule and the run loop share the greedy comparison.
    adv = uniform_ball_adversary(3)
    rule = PotentialConfig.default(adv.n, 50, adv.sigma)
    tr = run_discrepancy(rule, adv, 50, RngStream(seed=314))
    pool = build_probe_pool(3, rule.M, RngStream(seed=314).substream(1))
    d = np.zeros(3)
    for t in range(tr.t_done):
        assert choose_sign_potential(d, tr.X[t], rule, pool) == int(tr.signs[t])
        d = d + int(tr.signs[t]) * tr.X[t]


def test_run_discrepancy_signed_sum_rebuild():
    adv = adaptive_shell_adversary(4, 0.5)
    rule = PotentialConfig.default(adv.n, 200, adv.sigma)
    tr = run_discrepancy(rule, adv, 200, RngStream(seed=313))
    rebuilt = (tr.signs[:, None] * tr.X).sum(axis=0)
    assert float(np.abs(rebuilt - tr.d_final).max()) <= 1e-9
    assert tr.max_inf == pytest.approx(float(tr.inf_norms.max()))


def test_run_discrepancy_greedy_choice_is_replayable():
    # Rebuild the frozen probe pool from the recorded descriptor and verify
    # every chosen sign beats the rejected one.
    adv = uniform_ball_adversary(3)
    stream = RngStream(seed=314)
    rule = PotentialConfig.default(adv.n, 50, adv.sigma)
    tr = run_discrepancy(rule, adv, 50, stream)
    kind, seed, stream_id = tr.header["pool"]
    assert kind == "stream"
    pool = build_probe_pool(3, tr.header["M"], RngStream(seed=seed, stream_id=stream_id))
    lam = tr.header["lam"]
    d = np.zeros(3)
    for t in range(tr.t_done):
        x = tr.X[t]
        phi_plus = potential_value(d + x, lam, pool)
        phi_minus = potential_value(d - x, lam, pool)
        sign = int(tr.signs[t])
        chosen = phi_plus if sign == 1 else phi_minus
        rejected = phi_minus if sign == 1 else phi_plus
        assert chosen <= rejected + 1e-12
        assert float(tr.phis[t + 1]) == pytest.approx(chosen, abs=1e-12)
        d = d + sign * x
    assert tr.phi_cross_round == -1


def _cosh_mixture(basis_args: np.ndarray, ball_args: np.ndarray) -> float:
    """The one-state potential as computed before the two-row kernel."""
    if float(np.abs(basis_args).max(initial=0.0)) > COSH_ARG_LIMIT:
        raise PotentialOverflowError("basis probe argument exceeded the cosh overflow limit")
    basis_mean = float(np.cosh(basis_args).mean()) if basis_args.size else 1.0
    if not ball_args.size:
        return basis_mean
    if float(np.abs(ball_args).max(initial=0.0)) > COSH_ARG_LIMIT:
        raise PotentialOverflowError("ball probe argument exceeded the cosh overflow limit")
    return 0.5 * basis_mean + 0.5 * float(np.cosh(ball_args).mean())


def _reference_potential_run(rule: PotentialConfig, adv, T: int, rng: RngStream) -> dict:
    """The potential loop of ``run_discrepancy`` before the two-row kernel: two
    ``_cosh_mixture`` calls per round on d +- x and the incremental bd +- ball @ x."""
    n = adv.n
    gen = rng.generator()
    ball = build_probe_pool(n, rule.M, rng.substream(1)).ball
    bd = np.zeros(rule.M)
    d = np.zeros(n)
    signs, phis, ips, inf_norms, two_norms, xs = [], [1.0], [], [], [], []
    phi_cross_round, blown_up = -1, False
    for t in range(1, T + 1):
        x = np.asarray(adv.next_vector(d, t, gen), dtype=float)
        ips.append(float(d @ x))
        bx = ball @ x
        try:
            phi_plus = _cosh_mixture(rule.lam * (d + x), rule.lam * (bd + bx))
            phi_minus = _cosh_mixture(rule.lam * (d - x), rule.lam * (bd - bx))
        except PotentialOverflowError:
            blown_up = True
            phi_cross_round = t if phi_cross_round == -1 else phi_cross_round
            break
        sign, phi_t = (-1, phi_minus) if phi_minus < phi_plus - 1e-12 else (+1, phi_plus)
        phis.append(phi_t)
        if phi_t > float(T) ** 6 and phi_cross_round == -1:
            phi_cross_round = t
        bd = bd + sign * bx
        d = d + sign * x
        signs.append(sign)
        inf_norms.append(float(np.abs(d).max()))
        two_norms.append(float(np.linalg.norm(d)))
        xs.append(x)
    return {
        "X": np.array(xs, dtype=float).reshape(len(xs), n),
        "signs": np.array(signs, dtype=np.int8),
        "phis": np.array(phis),
        "ips": np.array(ips[: len(signs)]),
        "inf_norms": np.array(inf_norms),
        "two_norms": np.array(two_norms),
        "d_final": d,
        "t_done": len(signs),
        "blown_up": blown_up,
        "phi_cross_round": phi_cross_round,
    }


def _push_back_adversary(n: int, r: float) -> VectorAdversary:
    """e_1 first, then r * -d / ||d||_2: d + x shrinks while d - x grows, so a
    large lam overflows the minus side alone."""

    def next_fn(d, t, gen):
        nrm = float(np.linalg.norm(d))
        return np.eye(n)[0] if nrm == 0.0 else (-r / nrm) * d

    return VectorAdversary(n=n, sigma=1.0, next_fn=next_fn, name="push-back")


def _axis_adversary(n: int) -> VectorAdversary:
    """Round t plays a random multiple of e_(t mod n); with M = 0 a coordinate
    where d is still 0 makes an exact tie."""

    def next_fn(d, t, gen):
        x = np.zeros(n)
        x[t % n] = gen.uniform(-1.0, 1.0)
        return x

    return VectorAdversary(n=n, sigma=1.0, next_fn=next_fn, name="axis")


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    M=st.sampled_from([0, 1, 7, 64, 1024]),
    T=st.integers(1, 64),
    lam=st.sampled_from([None, 0.5, 60.0, 700.0 / 1.05]),
    source=st.sampled_from(["adaptive-shell", "uniform-ball", "push-back", "axis"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, M=0, T=8, lam=700.0 / 1.05, source="push-back", seed=0)  # minus side overflows
@example(n=3, M=0, T=16, lam=0.5, source="axis", seed=1)  # exact ties at M = 0
def test_potential_run_matches_reference_loop(n, M, T, lam, source, seed):
    adv = {
        "adaptive-shell": lambda: adaptive_shell_adversary(n, 0.25),
        "uniform-ball": lambda: uniform_ball_adversary(n),
        "push-back": lambda: _push_back_adversary(n, 0.5),
        "axis": lambda: _axis_adversary(n),
    }[source]()
    default = PotentialConfig.default(n, T, adv.sigma, M=M)
    rule = default if lam is None else PotentialConfig(lam=lam, M=M, k=default.k)
    stream = RngStream(seed=seed, stream_id=3)
    ref = _reference_potential_run(rule, adv, T, stream)
    tr = run_discrepancy(rule, adv, T, stream)
    got = {
        "X": tr.X,
        "signs": tr.signs,
        "phis": tr.phis,
        "ips": tr.ips,
        "inf_norms": tr.inf_norms,
        "two_norms": tr.two_norms,
        "d_final": tr.d_final,
    }
    for key, value in got.items():
        assert value.dtype == ref[key].dtype and value.shape == ref[key].shape, key
        assert value.tobytes() == ref[key].tobytes(), key
    assert (tr.t_done, tr.blown_up, tr.phi_cross_round) == (
        ref["t_done"],
        ref["blown_up"],
        ref["phi_cross_round"],
    )


def test_push_back_overflows_the_minus_side_only():
    # The first @example of the reference test: round 1 ties at d = 0 and plays
    # +e_1; round 2 has x = -0.5, so lam (d + x) = 333 but lam (d - x) = 1000 > 700.
    rule = PotentialConfig(lam=700.0 / 1.05, M=0, k=1)
    tr = run_discrepancy(rule, _push_back_adversary(1, 0.5), 8, RngStream(seed=0, stream_id=3))
    assert tr.signs.tolist() == [1]
    assert tr.blown_up and tr.t_done == 1
    assert rule.lam * 0.5 < COSH_ARG_LIMIT < rule.lam * 1.5


def test_axis_adversary_ties_go_to_plus():
    # Rounds 1..3 each load a coordinate that is still 0: Phi(d + x) == Phi(d - x).
    rule = PotentialConfig(lam=0.5, M=0, k=1)
    tr = run_discrepancy(rule, _axis_adversary(3), 3, RngStream(seed=1, stream_id=3))
    assert tr.signs.tolist() == [1, 1, 1]


def test_choose_sign_potential_overflow_on_either_side_raises():
    pool = _empty_pool(1)
    cfg = PotentialConfig(lam=600.0, M=0, k=1)
    # d + x = 0.5 stays below the limit and d - x = 1.5 does not, and vice versa.
    for x in (-0.5, 0.5):
        with pytest.raises(PotentialOverflowError):
            choose_sign_potential(np.array([1.0]), np.array([x]), cfg, pool)


def test_run_discrepancy_blowup_is_flagged():
    # Round 1 evaluates cosh(700) (huge but finite, crossing T^6 at once);
    # round 2 would need cosh(1400) and trips the overflow guard instead.
    adv = VectorAdversary(n=1, sigma=1.0, next_fn=lambda d, t, g: np.array([1.0]))
    cfg = PotentialConfig(lam=700.0, M=0, k=1)
    tr = run_discrepancy(cfg, adv, 10, RngStream(seed=315))
    assert tr.blown_up
    assert tr.phi_cross_round == 1
    assert tr.t_done == 1


def test_selfbalancing_run_never_fails_at_default_threshold():
    adv = uniform_ball_adversary(8)
    c = None
    for i in range(20):
        tr = run_discrepancy(
            SelfBalancingConfig.default(adv.n, 1000, adv.sigma),
            adv,
            1000,
            RngStream(seed=316, stream_id=i),
        )
        assert not tr.failed
        c = tr.header["c"]
        assert float(tr.inf_norms.max()) <= c + 1.0
    assert c == pytest.approx(
        default_threshold(default_balance_k(1.0, 1000), 8, 1000, 0.1)
    )


def test_random_sign_grows_like_sqrt_T():
    adv = uniform_ball_adversary(8)
    medians = {}
    for T in (1024, 4096):
        peaks = [
            float(
                run_discrepancy(
                    RandomSign(), adv, T, RngStream(seed=317, stream_id=i)
                ).two_norms.max()
            )
            for i in range(40)
        ]
        medians[T] = float(np.median(peaks))
    ratio = medians[4096] / medians[1024]
    assert 1.6 <= ratio <= 2.5


def test_potential_beats_random_sign_against_adaptive_shell():
    adv = adaptive_shell_adversary(8, 0.25)
    potential = PotentialConfig.default(adv.n, 2048, adv.sigma)
    pot = [
        run_discrepancy(potential, adv, 2048, RngStream(seed=318, stream_id=i)).max_inf
        for i in range(10)
    ]
    rnd = [
        run_discrepancy(RandomSign(), adv, 2048, RngStream(seed=319, stream_id=i)).max_inf
        for i in range(10)
    ]
    assert float(np.median(pot)) <= 0.35 * float(np.median(rnd))


def test_slab_draw_respects_constraints():
    gen = RngStream(seed=320).generator()
    d = np.array([1.0, -2.0, 0.5, 0.25])
    n, T = 4, 7
    tau = 1.0 / (n * n * T * T)
    dhat = d / np.linalg.norm(d)
    for _ in range(500):
        v = slab_adversary_next(d, n, T, gen)
        assert abs(float(v @ dhat)) <= tau + 1e-15
        assert float(np.linalg.norm(v)) <= 1.0 + 1e-12


def test_slab_draw_at_origin_is_uniform_ball():
    gen = RngStream(seed=321).generator()
    n = 4
    draws = np.array([slab_adversary_next(np.zeros(n), n, 5, gen) for _ in range(4000)])
    radii_pow = np.linalg.norm(draws, axis=1) ** n
    _, p = sps.kstest(radii_pow, "uniform")
    assert p > 0.001


def test_slab_exact_matches_rejection_oracle():
    n, T = 3, 2
    d = np.array([0.3, -0.1, 0.9])
    dhat = d / np.linalg.norm(d)
    exact_gen = RngStream(seed=322).generator()
    rej_gen = RngStream(seed=323).generator()
    n_draws = 2000
    s_exact = np.empty(n_draws)
    s_rej = np.empty(n_draws)
    norms_exact = np.empty(n_draws)
    norms_rej = np.empty(n_draws)
    for i in range(n_draws):
        v = slab_adversary_next(d, n, T, exact_gen)
        s_exact[i] = float(v @ dhat)
        norms_exact[i] = float(np.linalg.norm(v))
        w, _ = slab_adversary_next_rejection(d, n, T, rej_gen)
        s_rej[i] = float(w @ dhat)
        norms_rej[i] = float(np.linalg.norm(w))
    _, p_s = sps.ks_2samp(s_exact, s_rej)
    _, p_n = sps.ks_2samp(norms_exact, norms_rej)
    assert p_s > 0.001
    assert p_n > 0.001


def test_slab_acceptance_rate_above_bound():
    n, T = 4, 50
    rate = slab_acceptance_rate(n, T, 2_000_000, RngStream(seed=324).generator())
    assert rate >= 1.0 / (20.0 * n * n * T * T)


def test_slab_forces_energy_growth():
    n, T = 4, 200
    adv = slab_lowerbound_adversary(n, T)
    for rule in _default_rules(adv, T):
        good = 0
        for i in range(20):
            tr = run_discrepancy(rule, adv, T, RngStream(seed=325, stream_id=i))
            assert not tr.failed
            good += int(tr.final_two_norm_sq >= T / 20.0)
        assert good >= 18


def test_isotropy_ball_and_shell_are_isotropic():
    rep_ball = check_isotropy(uniform_ball_adversary(4), 100_000, RngStream(seed=326).generator())
    assert rep_ball.deviation <= 0.01
    rep_shell = check_isotropy(shell_adversary(4, 0.25), 100_000, RngStream(seed=327).generator())
    assert rep_shell.deviation <= 0.01
    rep_adaptive = check_isotropy(
        adaptive_shell_adversary(4, 0.25),
        100_000,
        RngStream(seed=328).generator(),
        d=np.array([1.0, 0, 0, 0]),
    )
    assert rep_adaptive.deviation <= 0.01


def test_isotropy_flags_the_slab():
    adv = slab_lowerbound_adversary(4, 10)
    rep = check_isotropy(
        adv, 20_000, RngStream(seed=329).generator(), d=np.array([2.0, 0.0, 0.0, 0.0])
    )
    assert rep.deviation >= 0.05


def test_isotropy_requires_enough_samples():
    with pytest.raises(ValidationError):
        check_isotropy(uniform_ball_adversary(2), 10, RngStream(seed=330).generator())


def test_tail_check_infinite_threshold_never_fires():
    adv = uniform_ball_adversary(4)
    traces = [
        run_discrepancy(RandomSign(), adv, 8, RngStream(seed=331, stream_id=i))
        for i in range(1000)
    ]
    rep = tail_probability_check(traces, float("inf"), bound=0.0)
    assert rep.n_events == 0
    assert rep.rate == 0.0
    assert rep.passed


def test_tail_check_requires_enough_runs():
    adv = uniform_ball_adversary(4)
    traces = [run_discrepancy(RandomSign(), adv, 4, RngStream(seed=332))]
    with pytest.raises(ValidationError):
        tail_probability_check(traces, 1.0, bound=0.5)


def test_tail_check_potential_lemma_threshold():
    # Fully smooth source: the coupling term vanishes and the exceedance
    # budget is delta alone.
    n, T, delta = 4, 32, 0.05
    adv = uniform_ball_adversary(n)
    cfg = PotentialConfig.default(n, T, adv.sigma)
    traces = [run_discrepancy(cfg, adv, T, RngStream(seed=333, stream_id=i)) for i in range(1000)]
    threshold = make_potential_tail_threshold(cfg, delta)
    rep = tail_probability_check(traces, threshold, bound=delta)
    assert rep.passed


def test_trace_csv_and_header():
    adv = uniform_ball_adversary(3)
    tr = run_discrepancy(PotentialConfig.default(adv.n, 5, adv.sigma), adv, 5, RngStream(seed=334))
    csv_text = trace_to_csv(tr)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "t,sign,d_inf_norm,d_2_norm,phi,failed"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] in ("1", "-1")
    assert float(first[4]) >= 1.0
    header = json.loads(trace_header_json(tr))
    assert header["algorithm"] == "potential"
    assert header["lam"] == tr.header["lam"]
    assert header["pool"][0] == "stream"

    trs = run_discrepancy(
        SelfBalancingConfig.default(adv.n, 5, adv.sigma), adv, 5, RngStream(seed=335)
    )
    csv_sb = trace_to_csv(trs)
    assert csv_sb.strip().split("\n")[1].split(",")[4] == ""
    assert "c" in json.loads(trace_header_json(trs))


def test_failed_run_truncates_trace():
    adv = VectorAdversary(n=2, sigma=1.0, next_fn=lambda d, t, g: np.array([1.0, 0.0]))
    cfg = SelfBalancingConfig(c=2.5, delta=0.5)
    # Deterministic drift: with x = e1 every round, the walk must eventually
    # push |d_1| past c and fail.
    tr = None
    for i in range(50):
        tr = run_discrepancy(cfg, adv, 500, RngStream(seed=336, stream_id=i))
        if tr.failed:
            break
    assert tr is not None and tr.failed
    assert tr.failed_round == tr.t_done + 1
    assert trace_to_csv(tr).strip().split("\n")[-1].endswith(",1")


def test_uniform_ball_batch_matches_scalar_law():
    gen = RngStream(seed=337).generator()
    batch = uniform_ball_batch(5, 20_000, gen)
    assert batch.shape == (20_000, 5)
    assert float(np.linalg.norm(batch, axis=1).max()) <= 1.0 + 1e-12
    scalar = np.array([uniform_ball(5, gen) for _ in range(20_000)])
    _, p = sps.ks_2samp(np.linalg.norm(batch, axis=1), np.linalg.norm(scalar, axis=1))
    assert p > 0.001


def test_shell_adversary_validates_inner_radius():
    with pytest.raises(ValidationError):
        shell_adversary(4, 0.5, inner=0.99)
    adv = shell_adversary(4, 0.5)
    gen = RngStream(seed=338).generator()
    inner = (1.0 - 0.5) ** 0.25
    for _ in range(200):
        v = adv.next_vector(np.zeros(4), 1, gen)
        assert inner - 1e-12 <= float(np.linalg.norm(v)) <= 1.0 + 1e-12


def test_vector_adversaries_validate_n_and_sigma():
    # n=0 would make uniform_ball loop forever; the shells and the slab would
    # divide by zero.
    for make in (
        lambda: uniform_ball_adversary(0),
        lambda: uniform_ball_adversary(-3),
        lambda: shell_adversary(0, 0.5),
        lambda: adaptive_shell_adversary(0, 0.5),
        lambda: adaptive_shell_adversary(4, 0.0),
        lambda: adaptive_shell_adversary(4, -1.0),
        lambda: VectorAdversary(n=2, sigma=1.5, next_fn=lambda d, t, g: np.zeros(2)),
        lambda: slab_lowerbound_adversary(0, 5),
        lambda: slab_lowerbound_adversary(3, 0),
    ):
        with pytest.raises(ValidationError):
            make()
