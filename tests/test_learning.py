"""Tests for the threshold-union class, cover, Hedge, oracles, and the game.

Frozen oracle values:

- cover sizes and spacings for (m=16, d=2, beta=0.25) and (m=64, d=1,
  beta=1/8) come from direct grid arithmetic: spacing floor(beta*m/d), grid
  lo, lo+spacing, ... within each block.
- best-in-hindsight and net-error have brute-force enumeration oracles and
  are compared on seeded random instances.
- the factored game loop has a flat O(N) reference, ``_oracle_learning_game``,
  that is compared with it draw for draw over a grid of (m, d, beta, seed).
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab import learning
from smoothlab.domain import RngStream, ValidationError
from smoothlab.harness import make_config
from smoothlab.learning import (
    BlockMistakeTracker,
    Hypothesis,
    MistakeTreeAdversary,
    RegretLedger,
    SmoothLabelAdversary,
    ThresholdUnionClass,
    best_in_hindsight,
    best_in_hindsight_brute,
    build_cover,
    constant_label_adversary,
    cover_distance_profile,
    hedge_expected_regret,
    hedge_step,
    hypothesis_distance,
    make_hedge,
    mistake_tree_adversary,
    net_error,
    net_error_brute,
    run_learning_game,
    stationary_smooth_adversary,
)


def _random_instance(gen, max_m=32, max_d=2, max_T=100):
    m = int(2 ** gen.integers(1, int(math.log2(max_m)) + 1))
    d_choices = [d for d in (1, 2) if d <= min(m, max_d)]
    d = int(d_choices[gen.integers(0, len(d_choices))])
    T = int(gen.integers(1, max_T + 1))
    xs = gen.integers(1, m + 1, size=T)
    ys = gen.integers(0, 2, size=T)
    return ThresholdUnionClass(m=m, d=d), xs, ys


def test_class_validation():
    with pytest.raises(ValidationError):
        ThresholdUnionClass(m=12, d=2)
    with pytest.raises(ValidationError):
        ThresholdUnionClass(m=16, d=3)
    with pytest.raises(ValidationError):
        ThresholdUnionClass(m=4, d=8)
    cls = ThresholdUnionClass(m=16, d=4)
    assert cls.block_size == 4
    assert cls.sigma == 1.0 / 16
    assert cls.block_range(0) == (1, 4)
    assert cls.block_range(3) == (13, 16)
    assert cls.block_of(1) == 0
    assert cls.block_of(4) == 0
    assert cls.block_of(5) == 1
    assert cls.block_of(16) == 3
    with pytest.raises(ValidationError):
        cls.block_of(0)
    with pytest.raises(ValidationError):
        cls.block_of(17)


def test_hypothesis_prediction():
    cls = ThresholdUnionClass(m=16, d=2)
    h = Hypothesis(cls, (3, 12))
    assert h.predict(2) == 0
    assert h.predict(3) == 1
    assert h.predict(8) == 1
    assert h.predict(9) == 0
    assert h.predict(12) == 1
    xs = np.arange(1, 17)
    assert np.array_equal(h.predict_many(xs), np.array([h.predict(int(x)) for x in xs]))
    with pytest.raises(ValidationError):
        Hypothesis(cls, (9, 12))
    with pytest.raises(ValidationError):
        Hypothesis(cls, (3,))


def test_hypothesis_distance_is_uniform_disagreement():
    cls = ThresholdUnionClass(m=16, d=2)
    gen = RngStream(seed=401).generator()
    xs = np.arange(1, 17)
    for _ in range(50):
        g1 = tuple(int(gen.integers(*cls.block_range(i))) for i in range(2))
        g2 = tuple(int(gen.integers(*cls.block_range(i))) for i in range(2))
        h1, h2 = Hypothesis(cls, g1), Hypothesis(cls, g2)
        frac = float((h1.predict_many(xs) != h2.predict_many(xs)).mean())
        assert hypothesis_distance(h1, h2) == pytest.approx(frac)


def test_build_cover_beta_one_is_single_hypothesis():
    cls = ThresholdUnionClass(m=16, d=2)
    cover = build_cover(cls, 1.0)
    assert cover.size == 1
    assert cover.spacing == 8
    assert cover_distance_profile(cover) <= 1.0


def test_build_cover_worked_example_16_2():
    cls = ThresholdUnionClass(m=16, d=2)
    cover = build_cover(cls, 0.25)
    assert cover.spacing == 2
    assert cover.block_grids == ((1, 3, 5, 7), (9, 11, 13, 15))
    assert cover.size == 16
    # Exhaustive: every one of the 64 class hypotheses has a neighbor <= 0.25.
    worst = max(
        min(hypothesis_distance(h, hc) for hc in cover.hypotheses)
        for h in cls.enumerate_hypotheses()
    )
    assert worst <= 0.25
    assert cover_distance_profile(cover) == pytest.approx(worst)


def test_build_cover_worked_example_64_1():
    cls = ThresholdUnionClass(m=64, d=1)
    cover = build_cover(cls, 1.0 / 8.0)
    assert cover.spacing == 8
    assert cover.size == 8
    assert cover_distance_profile(cover) <= 1.0 / 8.0


def test_build_cover_small_beta_degenerates_to_full_grid():
    cls = ThresholdUnionClass(m=16, d=2)
    cover = build_cover(cls, 0.01)
    assert cover.spacing == 1
    assert cover.size == cls.n_hypotheses()
    assert cover_distance_profile(cover) == 0.0


def test_build_cover_size_bound_and_validation():
    for m, d, beta in ((16, 2, 0.25), (64, 1, 0.125), (64, 2, 0.5), (32, 4, 0.3)):
        cover = build_cover(ThresholdUnionClass(m=m, d=d), beta)
        assert cover.size <= (math.ceil(d / beta) + 1) ** d
        assert cover_distance_profile(cover) <= beta
    with pytest.raises(ValidationError):
        build_cover(ThresholdUnionClass(m=16, d=2), 0.0)
    with pytest.raises(ValidationError):
        build_cover(ThresholdUnionClass(m=16, d=2), 1.5)


def test_hedge_eta_zero_is_static():
    state = make_hedge(4, eta=0.0)
    gen = RngStream(seed=402).generator()
    for _ in range(20):
        probs, state = hedge_step(state, gen.integers(0, 2, size=4).astype(float))
        assert np.allclose(probs, 0.25)


def test_hedge_zero_loss_expert_dominates_monotonically():
    state = make_hedge(3, T=200)
    last = 1.0 / 3.0
    for _ in range(200):
        probs, state = hedge_step(state, np.array([0.0, 1.0, 1.0]))
        assert probs[0] >= last - 1e-15
        last = probs[0]
    assert state.probs()[0] > 0.999


def test_hedge_probs_normalize():
    gen = RngStream(seed=403).generator()
    state = make_hedge(16, T=50)
    for _ in range(50):
        probs, state = hedge_step(state, gen.random(16))
        assert abs(float(probs.sum()) - 1.0) <= 1e-9
        assert abs(float(state.probs().sum()) - 1.0) <= 1e-9


def test_hedge_validation():
    with pytest.raises(ValidationError):
        make_hedge(0, T=10)
    with pytest.raises(ValidationError):
        make_hedge(4)
    with pytest.raises(ValidationError):
        make_hedge(4, eta=-0.1)
    state = make_hedge(4, T=10)
    with pytest.raises(ValidationError):
        hedge_step(state, np.zeros(3))
    with pytest.raises(ValidationError):
        hedge_step(state, np.array([0.0, 0.0, 0.0, 1.5]))


def test_hedge_rejects_nan_eta():
    with pytest.raises(ValidationError):
        make_hedge(2, eta=math.nan)


def test_hedge_step_rejects_nan_losses():
    # A NaN loss once passed the range check and turned every weight into NaN.
    state = make_hedge(2, eta=0.5)
    for losses in ([math.nan, 0.0], [0.0, math.nan], [math.nan, math.nan]):
        with pytest.raises(ValidationError):
            hedge_step(state, np.array(losses))


def test_hedge_regret_bound_on_random_tables():
    gen = RngStream(seed=404).generator()
    for _ in range(20):
        N = int(gen.integers(2, 17))
        T = int(gen.integers(50, 201))
        table = gen.random((T, N))
        assert hedge_expected_regret(table) <= math.sqrt(T * math.log(N) / 2.0) + 1e-9


def test_hedge_regret_bound_with_custom_eta():
    gen = RngStream(seed=405).generator()
    for eta in (0.05, 0.5):
        for _ in range(5):
            N, T = 8, 100
            table = gen.random((T, N))
            bound = eta * T / 8.0 + math.log(N) / eta
            assert hedge_expected_regret(table, eta=eta) <= bound + 1e-9


def test_best_in_hindsight_trivial_cases():
    cls = ThresholdUnionClass(m=16, d=2)
    h, loss = best_in_hindsight(cls, [5], [1])
    assert loss == 0
    assert h.gamma[0] <= 5
    # Realizable transcript: zero mistakes.
    gen = RngStream(seed=406).generator()
    target = Hypothesis(cls, (4, 14))
    xs = gen.integers(1, 17, size=60)
    ys = target.predict_many(xs)
    _, loss = best_in_hindsight(cls, xs, ys)
    assert loss == 0


def test_best_in_hindsight_validation():
    cls = ThresholdUnionClass(m=16, d=2)
    with pytest.raises(ValidationError):
        best_in_hindsight(cls, [], [])
    with pytest.raises(ValidationError):
        best_in_hindsight(cls, [17], [0])
    with pytest.raises(ValidationError):
        best_in_hindsight(cls, [4], [2])


def test_best_in_hindsight_matches_brute_force():
    gen = RngStream(seed=407).generator()
    for _ in range(200):
        cls, xs, ys = _random_instance(gen)
        h_fast, loss_fast = best_in_hindsight(cls, xs, ys)
        h_brute, loss_brute = best_in_hindsight_brute(cls, xs, ys)
        assert loss_fast == loss_brute
        assert int((h_fast.predict_many(xs) != ys).sum()) == loss_fast
        assert int((h_brute.predict_many(xs) != ys).sum()) == loss_brute


def test_net_error_trivial_cases():
    cls = ThresholdUnionClass(m=16, d=2)
    full = build_cover(cls, 0.01)  # spacing 1: cover is the entire class
    gen = RngStream(seed=408).generator()
    points = gen.integers(1, 17, size=40)
    assert net_error(cls, full, points) == 0
    coarse = build_cover(cls, 0.5)
    assert net_error(cls, coarse, []) == 0


def test_net_error_worked_example_matches_brute():
    cls = ThresholdUnionClass(m=16, d=2)
    cover = build_cover(cls, 0.25)
    gen = RngStream(seed=409).generator()
    points = gen.integers(1, 17, size=40)
    assert net_error(cls, cover, points) == net_error_brute(cls, cover, points)


def test_net_error_matches_brute_force():
    gen = RngStream(seed=410).generator()
    betas = (0.1, 0.25, 0.5, 1.0)
    for i in range(200):
        cls, xs, _ = _random_instance(gen)
        cover = build_cover(cls, betas[i % 4])
        assert net_error(cls, cover, xs) == net_error_brute(cls, cover, xs)


def test_net_error_monotone_under_multiset_inclusion():
    gen = RngStream(seed=411).generator()
    cls = ThresholdUnionClass(m=32, d=2)
    cover = build_cover(cls, 0.3)
    for _ in range(50):
        b = gen.integers(1, 33, size=int(gen.integers(2, 80)))
        mask = gen.random(b.size) < 0.6
        a = b[mask]
        assert net_error(cls, cover, a) <= net_error(cls, cover, b)


def test_tracker_matches_oracle_on_every_prefix():
    gen = RngStream(seed=412).generator()
    cls = ThresholdUnionClass(m=16, d=2)
    xs = gen.integers(1, 17, size=60)
    ys = gen.integers(0, 2, size=60)
    tracker = BlockMistakeTracker(cls)
    for t in range(60):
        tracker.update(int(xs[t]), int(ys[t]))
        _, oracle = best_in_hindsight(cls, xs[: t + 1], ys[: t + 1])
        assert tracker.best() == oracle


def test_run_learning_game_ledger_identity():
    cls = ThresholdUnionClass(m=64, d=2)
    cover = build_cover(cls, 0.1)
    adv = stationary_smooth_adversary(cls)
    led = run_learning_game("hedge-on-cover", adv, cover, 300, RngStream(seed=413))
    assert led.regret == led.cum_loss - led.best_loss
    assert int(led.regret_curve[-1]) == led.regret
    assert int(led.bih_curve[-1]) == led.best_loss
    assert np.array_equal(np.cumsum(led.losses), led.cum_losses)
    assert np.array_equal(led.losses, (led.predictions != led.ys).astype(int))
    assert int((led.best_hypothesis.predict_many(led.xs) != led.ys).sum()) == led.best_loss


def test_run_learning_game_realizable_on_grid_target():
    cls = ThresholdUnionClass(m=64, d=2)
    cover = build_cover(cls, 0.1)
    # Target on the cover grid: the cover contains a zero-mistake expert, so
    # the whole regret is realized Hedge regret: sqrt(T ln N / 2) expected,
    # plus sampling noise bounded by 3 sqrt(T).
    target = Hypothesis(cls, (cover.block_grids[0][2], cover.block_grids[1][4]))
    adv = constant_label_adversary(cls, target=target)
    T = 2048
    led = run_learning_game("hedge-on-cover", adv, cover, T, RngStream(seed=414))
    assert led.best_loss == 0
    assert led.regret <= math.sqrt(T * math.log(cover.size) / 2.0) + 3.0 * math.sqrt(T)


def test_run_learning_game_ftl():
    cls = ThresholdUnionClass(m=64, d=2)
    cover = build_cover(cls, 0.1)
    led = run_learning_game(
        "ftl-on-cover", constant_label_adversary(cls), cover, 512, RngStream(seed=905)
    )
    assert led.regret == led.cum_loss - led.best_loss
    assert led.best_loss == 0
    # FTL on a realizable stationary source locks on quickly.
    assert led.regret <= 60


def test_run_learning_game_validation():
    cls = ThresholdUnionClass(m=64, d=2)
    cover = build_cover(cls, 0.1)
    adv = stationary_smooth_adversary(cls)
    with pytest.raises(ValidationError):
        run_learning_game("boosting", adv, cover, 10, RngStream(seed=415))
    with pytest.raises(ValidationError):
        run_learning_game("hedge-on-cover", adv, cover, 0, RngStream(seed=415))
    other = stationary_smooth_adversary(ThresholdUnionClass(m=16, d=2))
    with pytest.raises(ValidationError):
        run_learning_game("hedge-on-cover", other, cover, 10, RngStream(seed=415))
    bad_x = SmoothLabelAdversary(
        sigma=cls.sigma, m=cls.m, rule=lambda g: (65, 0), name="bad"
    )
    with pytest.raises(ValidationError):
        run_learning_game("hedge-on-cover", bad_x, cover, 10, RngStream(seed=415))
    bad_y = SmoothLabelAdversary(
        sigma=cls.sigma, m=cls.m, rule=lambda g: (1, 2), name="bad"
    )
    with pytest.raises(ValidationError):
        run_learning_game("hedge-on-cover", bad_y, cover, 10, RngStream(seed=415))


def test_every_learner_takes_one_hedge_step_per_round(monkeypatch):
    # Each pick goes through the module-level hedge_step, once per round.
    cls = ThresholdUnionClass(m=16, d=2)
    cover = build_cover(cls, 0.1)
    calls = []

    def counted(state, losses):
        calls.append(1)
        return hedge_step(state, losses)

    monkeypatch.setattr(learning, "hedge_step", counted)
    for name in learning.LEARNERS:
        calls.clear()
        adv = stationary_smooth_adversary(cls)
        led = run_learning_game(name, adv, cover, 12, RngStream(seed=417))
        assert led.config["learner"] == name
        assert len(calls) == 12


def test_run_learning_game_is_reproducible():
    cls = ThresholdUnionClass(m=64, d=2)
    cover = build_cover(cls, 0.1)
    led1 = run_learning_game(
        "hedge-on-cover", stationary_smooth_adversary(cls), cover, 200, RngStream(seed=416)
    )
    led2 = run_learning_game(
        "hedge-on-cover", stationary_smooth_adversary(cls), cover, 200, RngStream(seed=416)
    )
    assert np.array_equal(led1.xs, led2.xs)
    assert np.array_equal(led1.predictions, led2.predictions)
    assert led1.regret == led2.regret
    led3 = run_learning_game(
        "hedge-on-cover",
        stationary_smooth_adversary(cls),
        cover,
        200,
        RngStream(seed=416, stream_id=1),
    )
    assert not np.array_equal(led1.xs, led3.xs)


def test_mistake_tree_descends_binary_search():
    cls = ThresholdUnionClass(m=64, d=2)
    adv = mistake_tree_adversary(cls)
    assert isinstance(adv, MistakeTreeAdversary)
    gen = RngStream(seed=417).generator()
    sizes = {0: [32], 1: [32]}
    for t in range(40):
        block = t % 2
        lo, hi = adv.active[block]
        x, y = adv.play(gen)
        assert lo <= x <= hi
        new_lo, new_hi = adv.active[block]
        assert (new_lo, new_hi) == ((lo, hi) if lo == hi else ((lo, x) if y == 1 else (x + 1, hi)))
        sizes[block].append(new_hi - new_lo + 1)
    for block in (0, 1):
        assert adv.shrink_counts[block] == 5  # log2(32) halvings, then parked
        assert adv.active[block][0] == adv.active[block][1]
        assert all(s2 <= s1 for s1, s2 in zip(sizes[block], sizes[block][1:]))


def test_mistake_tree_descent_labels_are_realizable():
    # The surviving threshold in each block must agree with every label
    # produced during that block's descent: that is the shattering property.
    cls = ThresholdUnionClass(m=64, d=2)
    adv = mistake_tree_adversary(cls)
    gen = RngStream(seed=418).generator()
    transcript = []
    for _ in range(10):  # exactly the descent rounds: 5 per block
        x, y = adv.play(gen)
        transcript.append((x, y))
    gamma = tuple(adv.active[i][0] for i in range(2))
    h = Hypothesis(cls, gamma)
    assert all(h.predict(x) == y for x, y in transcript)


def test_mistake_tree_generates_regret():
    cls = ThresholdUnionClass(m=64, d=2)
    cover = build_cover(cls, 0.1)
    regs = [
        run_learning_game(
            "hedge-on-cover",
            mistake_tree_adversary(cls),
            cover,
            1024,
            RngStream(seed=904, stream_id=i),
        ).regret
        for i in range(12)
    ]
    assert float(np.mean(regs)) >= 10.0


def test_ledger_csv_and_config():
    cls = ThresholdUnionClass(m=16, d=2)
    cover = build_cover(cls, 0.25)
    led = run_learning_game(
        "hedge-on-cover", stationary_smooth_adversary(cls), cover, 7, RngStream(seed=419)
    )
    lines = led.to_csv().strip().split("\n")
    assert lines[0] == "t,x,y,prediction,loss,cum_loss,regret_so_far"
    assert len(lines) == 8
    row = lines[3].split(",")
    assert row[0] == "3"
    assert all(field == str(int(field)) for field in row)
    config = json.loads(led.config_json())
    assert config["m"] == 16
    assert config["d"] == 2
    assert config["sigma"] == 1.0 / 16
    assert config["beta"] == 0.25
    assert config["N"] == cover.size
    assert config["eta"] == pytest.approx(math.sqrt(8.0 * math.log(cover.size) / 7))
    assert config["T"] == 7
    assert config["seed"] == 419
    assert config["stream_id"] == 0


def _oracle_hedge_pick(state, losses, gen):
    probs, state = hedge_step(state, losses)
    return int(gen.choice(state.n_experts, p=probs)), state


def _oracle_ftl_pick(state, losses, gen):
    j = int(np.argmin(state.cum_losses))
    _, state = hedge_step(state, losses)
    return j, state


_ORACLE_PICKS = {"hedge-on-cover": _oracle_hedge_pick, "ftl-on-cover": _oracle_ftl_pick}


def _oracle_learning_game(learner, adv, cover, T, rng, gamma_matrix):
    # Flat Hedge over all N cover hypotheses: every round charges the whole
    # (N, d) threshold matrix and samples an expert with gen.choice(N, p).
    pick = _ORACLE_PICKS[learner]
    cls = cover.cls
    gen = rng.generator()
    state = make_hedge(cover.size, T=T)
    tracker = BlockMistakeTracker(cls)
    xs, ys, predictions, bih = [], [], [], []
    for _ in range(T):
        x, y = (int(v) for v in adv.play(gen))
        expert_preds = (x >= gamma_matrix[:, cls.block_of(x)]).astype(int)
        j, state = pick(state, (expert_preds != y).astype(float), gen)
        pred = int(expert_preds[j])
        tracker.update(x, y)
        xs.append(x)
        ys.append(y)
        predictions.append(pred)
        bih.append(tracker.best())
    xs, ys, predictions, bih = (np.array(v, dtype=int) for v in (xs, ys, predictions, bih))
    losses = (predictions != ys).astype(int)
    cum_losses = np.cumsum(losses)
    best_h, best_loss = best_in_hindsight(cls, xs, ys)
    config = {
        "m": cls.m,
        "d": cls.d,
        "sigma": cls.sigma,
        "beta": cover.beta,
        "N": cover.size,
        "eta": state.eta,
        "T": T,
        "learner": learner,
        "adversary": adv.name,
        "seed": rng.seed,
        "stream_id": rng.stream_id,
    }
    return RegretLedger(
        xs=xs,
        ys=ys,
        predictions=predictions,
        losses=losses,
        cum_losses=cum_losses,
        bih_curve=bih,
        regret_curve=cum_losses - bih,
        best_hypothesis=best_h,
        best_loss=best_loss,
        regret=int(cum_losses[-1]) - best_loss,
        config=config,
    )


_LEDGER_ARRAYS = ("xs", "ys", "predictions", "losses", "cum_losses", "bih_curve", "regret_curve")
_ADVERSARIES = (stationary_smooth_adversary, mistake_tree_adversary, constant_label_adversary)


@pytest.mark.parametrize("m,d", list(itertools.product((16, 64, 256), (1, 2, 4))))
def test_factored_game_matches_flat_reference_draw_for_draw(m, d):
    cls = ThresholdUnionClass(m, d)
    T = 64
    default_beta = cls.sigma * math.sqrt(d) / math.sqrt(T)
    for beta in (default_beta, 0.05, 0.2):
        cover = build_cover(cls, beta)
        if cover.size > learning._ENUMERATION_CAP:
            # (m=256, d=4) at the default beta: N = 64**4 is past what the
            # flat reference can enumerate.
            continue
        gamma_matrix = np.array([h.gamma for h in cover.hypotheses], dtype=int)
        for learner, make_adv, seed in itertools.product(
            learning.LEARNERS, _ADVERSARIES, (2201, 2202)
        ):
            rng = RngStream(seed=seed, stream_id=m + d)
            led = run_learning_game(learner, make_adv(cls), cover, T, rng)
            ref = _oracle_learning_game(learner, make_adv(cls), cover, T, rng, gamma_matrix)
            for name in _LEDGER_ARRAYS:
                assert np.array_equal(getattr(led, name), getattr(ref, name)), name
            assert led.best_hypothesis == ref.best_hypothesis
            assert (led.best_loss, led.regret) == (ref.best_loss, ref.regret)
            assert led.config_json() == ref.config_json()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_of_block_hedge_probs_is_flat_hedge(data):
    sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    eta = data.draw(st.floats(0.0, 2.0))
    rounds = data.draw(st.integers(1, 30))
    # Row k holds the per-block grid indices of flat expert k, in product order.
    index = np.array(list(itertools.product(*(range(s) for s in sizes))))
    flat = make_hedge(index.shape[0], eta=eta)
    blocks = [make_hedge(s, eta=eta) for s in sizes]
    for _ in range(rounds):
        b = data.draw(st.integers(0, len(sizes) - 1))
        losses = np.array(
            data.draw(st.lists(st.floats(0.0, 1.0), min_size=sizes[b], max_size=sizes[b]))
        )
        flat_probs, flat = hedge_step(flat, losses[index[:, b]])
        product = np.ones(1)
        for state in blocks:
            product = np.kron(product, state.probs())
        np.testing.assert_allclose(product, flat_probs, rtol=0.0, atol=1e-12)
        _, blocks[b] = hedge_step(blocks[b], losses)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_first_argmin_is_flat_first_argmin(data):
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    tables = [
        np.array(data.draw(st.lists(st.integers(0, 3), min_size=s, max_size=s)), dtype=float)
        for s in sizes
    ]
    # Cumulative losses add across blocks; ravel lays them out in product order.
    flat = tables[0]
    for table in tables[1:]:
        flat = np.add.outer(flat, table)
    flat_index = np.unravel_index(int(np.argmin(flat.ravel())), tuple(sizes))
    assert tuple(int(i) for i in flat_index) == tuple(int(np.argmin(t)) for t in tables)


@settings(max_examples=300, deadline=None)
@given(
    probs=st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1e-300)),
        min_size=1,
        max_size=12,
    ).filter(lambda p: sum(p) > 0.0),
    u=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(math.nextafter(1.0, 0.0))),
)
def test_inverse_cdf_lands_in_a_cell_of_positive_mass(probs, u):
    probs = np.array(probs)
    i, rescaled = learning._inverse_cdf(probs, u)
    assert 0 <= i < probs.size
    assert probs[i] > 0.0
    assert 0.0 <= rescaled < 1.0


def test_inverse_cdf_rescaled_draw_stays_below_one():
    # The cdf is [lo, 0.75, 1] and u is one ulp below 0.75: u - lo and
    # 0.75 - lo round to the same double, so their ratio rounds to 1.0.
    lo = 0.125 + 3 * 2.0**-54
    u = math.nextafter(0.75, 0.0)
    assert (u - lo) / (0.75 - lo) == 1.0
    i, rescaled = learning._inverse_cdf(np.array([lo, 0.75 - lo, 0.25]), u)
    assert i == 1
    assert rescaled < 1.0


def test_learning_runs_past_the_enumeration_cap():
    cfg = make_config("learning", {"m": 4096, "d": 2, "T": 256}, 2, 0)
    params = cfg.params
    cls = ThresholdUnionClass(params["m"], params["d"])
    cover = build_cover(cls, params["beta"])
    adv = stationary_smooth_adversary(cls, flip=params["flip"])
    led = run_learning_game(params["learner"], adv, cover, params["T"], RngStream(seed=0))
    assert led.config["N"] == 2048**2
    assert led.regret == led.cum_loss - led.best_loss
    with pytest.raises(ValidationError):
        cover.hypotheses
