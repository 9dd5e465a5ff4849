"""Tests for discontinuity generation and window-dispersion counting.

Frozen oracle values:

- points {0.1, 0.2, 0.9} with functions {1, 1, 2} and w = 0.15 give counts
  (2, 1): the closed window [0.1, 0.25] holds two points of one function, and
  no open window strictly contains points of two functions.
- the bound at (T, ell, sigma, w, delta) = (100, 5, 0.1, 0.02, 0.05) is
  1696.117935815099, evaluated here by an independent arithmetic path (sums
  of logarithms instead of logarithms of products).

The incremental densest-window rule has the sort-based rule it replaced,
``_densest_reference``, as its oracle: the two are compared on every prefix of
random sequences and draw for draw inside ``generate_discontinuities``.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from smoothlab.domain import RngStream, ValidationError
from smoothlab.dispersion import (
    DiscontinuitySample,
    IntervalAdversary,
    check_dispersed,
    default_window_width,
    densest_window_adversary,
    dispersion_bound,
    fixed_interval_adversary,
    generate_discontinuities,
    iid_uniform_adversary,
    max_interval_count,
    max_interval_count_brute,
    report_csv,
    sample_to_jsonl,
)


def _random_flat_instance(gen):
    n = int(gen.integers(1, 61))
    if gen.random() < 0.5:
        x = gen.random(n)
    else:
        # Grid-valued points force duplicate coordinates and boundary ties.
        x = gen.integers(0, 12, size=n) / 12.0
    fn = gen.integers(0, max(1, n // 3) + 1, size=n)
    w = float(gen.uniform(0.01, 1.0))
    return x, fn, w


def test_sample_validation():
    with pytest.raises(ValidationError):
        DiscontinuitySample(points=np.array([[0.5, 1.5]]), sigma=0.5, adversary="x")
    with pytest.raises(ValidationError):
        DiscontinuitySample(points=np.empty((0, 3)), sigma=0.5, adversary="x")
    s = DiscontinuitySample(
        points=np.array([[0.1, 0.9], [0.4, 0.5], [0.0, 1.0]]),
        sigma=0.5,
        adversary="x",
    )
    assert s.T == 3
    assert s.ell == 2
    x, fn = s.flat()
    assert np.array_equal(fn, np.array([0, 0, 1, 1, 2, 2]))
    assert x[2] == 0.4


def test_generate_iid_uniform_is_uniform():
    sample = generate_discontinuities(
        iid_uniform_adversary(), 100, 5, 1.0, RngStream(seed=501).generator()
    )
    assert sample.points.shape == (100, 5)
    _, p = sps.kstest(sample.points.ravel(), "uniform")
    assert p > 0.001
    assert sample.adversary == "iid-uniform"


def test_generate_fixed_interval_stays_inside():
    adv = fixed_interval_adversary(0.25)
    sample = generate_discontinuities(adv, 20, 3, 0.25, RngStream(seed=502).generator())
    assert float(sample.points.max()) <= 0.25
    assert float(sample.points.min()) >= 0.0
    shifted = fixed_interval_adversary(0.2, lo=0.7)
    sample2 = generate_discontinuities(shifted, 10, 2, 0.2, RngStream(seed=503).generator())
    assert float(sample2.points.min()) >= 0.7
    assert float(sample2.points.max()) <= 0.9
    with pytest.raises(ValidationError):
        fixed_interval_adversary(0.3, lo=0.8)


def test_generate_densest_window_sample_is_valid():
    adv = densest_window_adversary(0.1)
    sample = generate_discontinuities(adv, 40, 5, 0.1, RngStream(seed=504).generator())
    assert sample.points.shape == (40, 5)
    assert float(sample.points.min()) >= 0.0
    assert float(sample.points.max()) <= 1.0


def _densest_reference(sigma):
    # The sort-based rule: sort every point so far, count each anchor's closed
    # window with searchsorted, and aim at the first argmax.
    def rule(pts, step, gen):
        if pts.size == 0:
            return 0.0, sigma
        xs = np.sort(pts)
        highs = np.searchsorted(xs, xs + sigma, side="right")
        anchor = int(np.argmax(highs - np.arange(xs.size)))
        return min(max(float(xs[anchor]), 0.0), 1.0 - sigma), sigma

    return rule


def _point_sequences(sigma):
    edges = st.sampled_from([0.0, 1.0, 1.0 - sigma])
    grid = st.integers(0, 12).map(lambda k: k / 12)  # ties and shared window edges
    return st.lists(st.one_of(edges, grid, st.floats(0.0, 1.0)), max_size=40)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sigma=st.sampled_from([1e-3, 0.1, 0.5, 1.0]))
def test_densest_window_rule_matches_sort_reference(data, sigma):
    rule = densest_window_adversary(sigma).rule
    reference = _densest_reference(sigma)
    # One rule object serves two unrelated sequences.  Each gets calls that
    # skip, repeat or go back a step, then every prefix in order.
    for _ in range(2):
        pts = np.array(data.draw(_point_sequences(sigma)), dtype=float)
        jumps = data.draw(st.lists(st.integers(0, pts.size), max_size=8))
        for step in jumps + list(range(pts.size + 1)):
            assert rule(pts[:step], step, None) == reference(pts[:step], step, None), step


def test_reused_densest_window_adversary_draws_as_the_reference():
    adv = densest_window_adversary(0.1)
    reference = IntervalAdversary(sigma=0.1, rule=_densest_reference(0.1), name="densest-window")
    for stream_id in (0, 1, 0):
        rng = RngStream(seed=517, stream_id=stream_id)
        sample = generate_discontinuities(adv, 30, 5, 0.1, rng.generator())
        expected = generate_discontinuities(reference, 30, 5, 0.1, rng.generator())
        assert sample.points.tobytes() == expected.points.tobytes()


def test_densest_window_rule_on_a_long_sequence_with_a_restart():
    # 5,000 points the rule aimed itself, so most of them crowd one window.
    # Played one prefix at a time from empty, the arrays grow through 13
    # doublings; a call with an unrelated sequence at step 2,500 forces a
    # rebuild of all 2,500 points when the long sequence resumes.
    sigma = 0.1
    pts = generate_discontinuities(
        densest_window_adversary(sigma), 1000, 5, sigma, RngStream(seed=519).generator()
    ).points.ravel()
    rule = densest_window_adversary(sigma).rule
    reference = _densest_reference(sigma)
    other = RngStream(seed=520).generator().random(40)
    checked = set(range(0, pts.size + 1, 250)) | {1, 2, 3, 2499, 2500, 2501}
    for step in range(pts.size + 1):
        if step == 2500:
            assert rule(other, 40, None) == reference(other, 40, None)
        got = rule(pts[:step], step, None)
        if step in checked:
            assert got == reference(pts[:step], step, None), step
    assert rule.xs.size == 8192


def test_densest_window_rule_restarts_on_a_signed_zero():
    # -0.0 == 0.0, but the history check compares bits: the second call
    # starts over, and the anchor it reports is the -0.0 it was given.
    rule = densest_window_adversary(0.1).rule
    plus, minus = np.array([0.0, 0.05]), np.array([-0.0, 0.05])
    assert repr(rule(plus, 2, None)[0]) == "0.0"
    lo = rule(minus, 2, None)[0]
    assert repr(lo) == repr(_densest_reference(0.1)(minus, 2, None)[0]) == "-0.0"
    assert repr(rule(plus, 2, None)[0]) == "0.0"


def test_rule_that_writes_into_the_history_raises():
    def scribble(pts, step, gen):
        if step:
            pts[0] = 0.5
        return 0.0, 1.0

    adv = IntervalAdversary(sigma=1.0, rule=scribble, name="scribble")
    with pytest.raises(ValueError, match="read-only"):
        generate_discontinuities(adv, 3, 2, 1.0, RngStream(seed=518).generator())


def test_generate_rejects_narrow_or_escaping_intervals():
    narrow = IntervalAdversary(sigma=0.5, rule=lambda p, s, g: (0.0, 0.25), name="narrow")
    with pytest.raises(ValidationError):
        generate_discontinuities(narrow, 2, 2, 0.5, RngStream(seed=505).generator())
    escaping = IntervalAdversary(sigma=0.5, rule=lambda p, s, g: (0.8, 0.5), name="esc")
    with pytest.raises(ValidationError):
        generate_discontinuities(escaping, 2, 2, 0.5, RngStream(seed=505).generator())
    with pytest.raises(ValidationError):
        generate_discontinuities(
            iid_uniform_adversary(), 0, 2, 0.5, RngStream(seed=505).generator()
        )
    with pytest.raises(ValidationError):
        generate_discontinuities(
            iid_uniform_adversary(), 2, 2, 1.5, RngStream(seed=505).generator()
        )


@pytest.mark.parametrize("interval", [(math.nan, 0.5), (0.0, math.nan), (math.nan, math.nan)])
def test_generate_rejects_nan_intervals_at_their_step(interval):
    def rule(pts, step, gen):
        return interval if step == 3 else (0.0, 0.5)

    adv = IntervalAdversary(sigma=0.5, rule=rule, name="nan")
    with pytest.raises(ValidationError, match="at step 3"):
        generate_discontinuities(adv, 3, 2, 0.5, RngStream(seed=505).generator())


def test_generate_is_reproducible():
    a = generate_discontinuities(
        iid_uniform_adversary(), 10, 3, 1.0, RngStream(seed=506).generator()
    )
    b = generate_discontinuities(
        iid_uniform_adversary(), 10, 3, 1.0, RngStream(seed=506).generator()
    )
    c = generate_discontinuities(
        iid_uniform_adversary(), 10, 3, 1.0, RngStream(seed=506, stream_id=1).generator()
    )
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_max_interval_count_trivial_cases():
    assert max_interval_count(np.array([]), 0.5) == (0, 0)
    # w = 1 captures everything: total T*ell, split = functions with points.
    gen = RngStream(seed=507).generator()
    x = gen.uniform(0.01, 0.99, size=30)
    fn = gen.integers(0, 7, size=30)
    total, split = max_interval_count(x, 1.0, fn_index=fn)
    assert total == 30
    assert split == len(set(fn.tolist()))


def test_max_interval_count_worked_example():
    x = np.array([0.1, 0.2, 0.9])
    fn = np.array([1, 1, 2])
    assert max_interval_count(x, 0.15, fn_index=fn) == (2, 1)
    assert max_interval_count_brute(x, 0.15, fn_index=fn) == (2, 1)


def test_max_interval_count_closed_vs_open_boundaries():
    # Points exactly w apart: the closed window holds both, but no open
    # window does, so the pair never splits two functions.
    x = np.array([0.3, 0.5])
    fn = np.array([0, 1])
    total, split = max_interval_count(x, 0.2, fn_index=fn)
    assert total == 2
    assert split == 1


def test_max_interval_count_validation():
    with pytest.raises(ValidationError):
        max_interval_count(np.array([0.5]), 0.0)
    with pytest.raises(ValidationError):
        max_interval_count(np.array([0.5]), 1.5)
    with pytest.raises(ValidationError):
        max_interval_count(np.array([0.5, 0.6]), 0.5, fn_index=np.array([1]))
    sample = DiscontinuitySample(points=np.array([[0.5]]), sigma=1.0, adversary="x")
    with pytest.raises(ValidationError):
        max_interval_count(sample, 0.5, fn_index=np.array([0]))


def test_sweep_matches_brute_force():
    gen = RngStream(seed=508).generator()
    for _ in range(200):
        x, fn, w = _random_flat_instance(gen)
        assert max_interval_count(x, w, fn_index=fn) == max_interval_count_brute(
            x, w, fn_index=fn
        )


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.one_of(st.floats(0.0, 1.0), st.integers(0, 12).map(lambda k: k / 12)),
            st.integers(0, 5),
        ),
        min_size=1,
        max_size=30,
    ),
    w=st.one_of(
        # From below half an ulp of every nonzero point up to a few ulps.
        st.sampled_from([1e-300, 1e-20, 1e-17, 5e-17, 1e-16, 3e-16]),
        st.floats(1e-17, 1.0),
    ),
)
# 0.5 + 1e-17 == 0.5, so the half-open window at 0.5 is empty: (1, 0), and
# (1, 1) once 0.0, whose window is not empty, joins.
@example(pairs=[(0.5, 0), (0.7, 1)], w=1e-17)
@example(pairs=[(0.0, 0), (0.5, 1), (0.7, 2)], w=1e-17)
def test_sweep_matches_brute_force_down_to_sub_ulp_windows(pairs, w):
    x = [p for p, _ in pairs]
    fn = [f for _, f in pairs]
    assert max_interval_count(x, w, fn_index=fn) == max_interval_count_brute(x, w, fn_index=fn)


def test_counts_monotone_in_window_width():
    gen = RngStream(seed=509).generator()
    for _ in range(50):
        x, fn, _ = _random_flat_instance(gen)
        w1 = float(gen.uniform(0.01, 0.5))
        w2 = float(gen.uniform(w1, 1.0))
        t1, s1 = max_interval_count(x, w1, fn_index=fn)
        t2, s2 = max_interval_count(x, w2, fn_index=fn)
        assert s1 <= t1
        assert s2 <= t2
        assert t1 <= t2
        assert s1 <= s2


def test_counts_monotone_under_point_addition():
    gen = RngStream(seed=510).generator()
    for _ in range(50):
        x, fn, w = _random_flat_instance(gen)
        mask = gen.random(x.size) < 0.6
        ta, sa = max_interval_count(x[mask], w, fn_index=fn[mask])
        tb, sb = max_interval_count(x, w, fn_index=fn)
        assert ta <= tb
        assert sa <= sb


def test_dispersion_bound_dual_evaluation():
    T, ell, sigma, w, delta = 100, 5, 0.1, 0.02, 0.05
    n = T * ell
    L = math.log(2 * n) - math.log(delta)
    q = n * w / sigma * L
    independent = (
        q
        + 10.0 * (q * (-math.log(delta))) ** 0.5
        + 10.0
        * (math.log(10.0) + math.log(n) + math.log(L) - math.log(sigma) - math.log(delta))
    )
    got = dispersion_bound(T, ell, sigma, w, delta)
    assert got == pytest.approx(independent, rel=1e-12)
    assert got == pytest.approx(1696.117935815099, rel=1e-12)


def test_dispersion_bound_small_w_limit():
    T, ell, sigma, delta = 100, 5, 0.1, 0.05
    n = T * ell
    third_term = 10.0 * math.log(10.0 * n * math.log(2.0 * n / delta) / (sigma * delta))
    got = dispersion_bound(T, ell, sigma, 1e-12, delta)
    assert got == pytest.approx(third_term, rel=1e-3)


def test_dispersion_bound_monotone_in_w_and_T():
    for sigma, delta in ((0.1, 0.05), (0.5, 0.2)):
        values_w = [dispersion_bound(50, 4, sigma, w, delta) for w in np.linspace(0.001, 1, 25)]
        assert all(a < b for a, b in zip(values_w, values_w[1:]))
        values_T = [dispersion_bound(T, 4, sigma, 0.02, delta) for T in (10, 20, 50, 100, 400)]
        assert all(a < b for a, b in zip(values_T, values_T[1:]))


def test_dispersion_bound_validation():
    with pytest.raises(ValidationError):
        dispersion_bound(0, 5, 0.1, 0.02, 0.05)
    with pytest.raises(ValidationError):
        dispersion_bound(10, 5, 0.0, 0.02, 0.05)
    with pytest.raises(ValidationError):
        dispersion_bound(10, 5, 0.1, 0.0, 0.05)
    with pytest.raises(ValidationError, match=r"w must lie in \(0, 1\]"):
        dispersion_bound(10, 5, 0.1, 2.0, 0.05)
    with pytest.raises(ValidationError):
        dispersion_bound(10, 5, 0.1, 0.02, 1.0)


def test_default_window_width():
    assert default_window_width(100, 5, 0.1, alpha=0.5) == pytest.approx(0.1 * 500**-0.5)
    assert default_window_width(100, 5, 0.1, alpha=1.0) == pytest.approx(0.1)
    with pytest.raises(ValidationError):
        default_window_width(100, 5, 0.1, alpha=0.4)


def test_check_dispersed_k_equals_T_always_true():
    sample = generate_discontinuities(
        fixed_interval_adversary(0.1), 30, 4, 0.1, RngStream(seed=511).generator()
    )
    ok, report = check_dispersed(sample, k=30)
    assert ok
    assert report.split <= report.total <= 120
    assert report.k == 30.0


def test_check_dispersed_refuses_negative_or_non_finite_k():
    sample = generate_discontinuities(
        iid_uniform_adversary(), 20, 2, 0.2, RngStream(seed=513).generator()
    )
    for k in (-5.0, -1e-12, math.nan, math.inf):
        with pytest.raises(ValidationError, match="k must be finite and >= 0"):
            check_dispersed(sample, k=k)
    ok, report = check_dispersed(sample, k=0)
    assert report.k == 0.0
    assert ok == (report.split == 0)


def test_check_dispersed_defaults():
    sample = generate_discontinuities(
        iid_uniform_adversary(), 100, 5, 0.1, RngStream(seed=512).generator()
    )
    ok, report = check_dispersed(sample)
    assert report.w == pytest.approx(0.1 * 500**-0.5)
    assert report.bound == pytest.approx(dispersion_bound(100, 5, 0.1, report.w, 0.05))
    assert report.k == report.bound
    assert ok == (report.split <= report.k)
    assert report.n_points == 500


def test_check_dispersed_monte_carlo_iid():
    exceed = 0
    for i in range(30):
        sample = generate_discontinuities(
            iid_uniform_adversary(), 100, 5, 1.0, RngStream(seed=513, stream_id=i).generator()
        )
        _, report = check_dispersed(sample, alpha=0.5, delta=0.05)
        if report.total > report.bound:
            exceed += 1
    assert exceed == 0


def test_check_dispersed_monte_carlo_densest_window():
    exceed = 0
    for i in range(15):
        sample = generate_discontinuities(
            densest_window_adversary(0.1),
            100,
            5,
            0.1,
            RngStream(seed=514, stream_id=i).generator(),
        )
        _, report = check_dispersed(sample, alpha=0.5, delta=0.05)
        if report.total > report.bound:
            exceed += 1
    assert exceed == 0


def test_jsonl_round_trip():
    sample = generate_discontinuities(
        iid_uniform_adversary(), 6, 3, 1.0, RngStream(seed=515).generator()
    )
    text = sample_to_jsonl(sample)
    first = json.loads(text.split("\n")[0])
    assert first["i"] == 1
    assert first["j"] == 1
    records = [json.loads(line) for line in text.splitlines()]
    # One line per point in row order, so the indices tile [6] x [3].
    assert [(r["i"], r["j"]) for r in records] == [(i, j) for i in range(1, 7) for j in range(1, 4)]
    points = np.array([r["x"] for r in records]).reshape(6, 3)
    assert np.array_equal(points, sample.points)


def test_jsonl_matches_json_dumps_on_edge_floats():
    points = np.array([[0.0, 1.0, 5e-324], [1e-7, 0.1 + 0.2, 0.5]])
    sample = DiscontinuitySample(points=points, sigma=1.0, adversary="x")
    expected = "".join(
        json.dumps({"i": i + 1, "j": j + 1, "x": float(points[i, j])}) + "\n"
        for i in range(2)
        for j in range(3)
    )
    assert sample_to_jsonl(sample) == expected


def test_report_csv_format():
    sample = generate_discontinuities(
        iid_uniform_adversary(), 10, 2, 1.0, RngStream(seed=516).generator()
    )
    _, report = check_dispersed(sample)
    lines = report_csv(report).strip().split("\n")
    assert lines[0] == "w,total,split,bound,pass"
    w, total, split, bound, passed = lines[1].split(",")
    assert float(w) == report.w
    assert int(total) == report.total
    assert int(split) == report.split
    assert float(bound) == report.bound
    assert passed in ("0", "1")
