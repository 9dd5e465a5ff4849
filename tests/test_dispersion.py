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
from hypothesis import given, settings
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
        DiscontinuitySample(
            points=np.array([[0.5, 1.5]]), sigma=0.5, adversary="x", seed_info={}
        )
    with pytest.raises(ValidationError):
        DiscontinuitySample(
            points=np.empty((0, 3)), sigma=0.5, adversary="x", seed_info={}
        )
    s = DiscontinuitySample(
        points=np.array([[0.1, 0.9], [0.4, 0.5], [0.0, 1.0]]),
        sigma=0.5,
        adversary="x",
        seed_info={},
    )
    assert s.T == 3
    assert s.ell == 2
    x, fn = s.flat()
    assert np.array_equal(fn, np.array([0, 0, 1, 1, 2, 2]))
    assert x[2] == 0.4


def test_generate_iid_uniform_is_uniform():
    sample = generate_discontinuities(iid_uniform_adversary(), 100, 5, 1.0, RngStream(seed=501))
    assert sample.points.shape == (100, 5)
    _, p = sps.kstest(sample.points.ravel(), "uniform")
    assert p > 0.001
    assert sample.adversary == "iid-uniform"
    assert sample.seed_info == {"seed": 501, "stream_id": 0}


def test_generate_fixed_interval_stays_inside():
    adv = fixed_interval_adversary(0.25)
    sample = generate_discontinuities(adv, 20, 3, 0.25, RngStream(seed=502))
    assert float(sample.points.max()) <= 0.25
    assert float(sample.points.min()) >= 0.0
    shifted = fixed_interval_adversary(0.2, lo=0.7)
    sample2 = generate_discontinuities(shifted, 10, 2, 0.2, RngStream(seed=503))
    assert float(sample2.points.min()) >= 0.7
    assert float(sample2.points.max()) <= 0.9
    with pytest.raises(ValidationError):
        fixed_interval_adversary(0.3, lo=0.8)


def test_generate_densest_window_sample_is_valid():
    adv = densest_window_adversary(0.1)
    sample = generate_discontinuities(adv, 40, 5, 0.1, RngStream(seed=504))
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
        sample = generate_discontinuities(adv, 30, 5, 0.1, rng)
        expected = generate_discontinuities(reference, 30, 5, 0.1, rng)
        assert sample.points.tobytes() == expected.points.tobytes()


def test_rule_that_writes_into_the_history_raises():
    def scribble(pts, step, gen):
        if step:
            pts[0] = 0.5
        return 0.0, 1.0

    adv = IntervalAdversary(sigma=1.0, rule=scribble, name="scribble")
    with pytest.raises(ValueError, match="read-only"):
        generate_discontinuities(adv, 3, 2, 1.0, RngStream(seed=518))


def test_generate_rejects_narrow_or_escaping_intervals():
    narrow = IntervalAdversary(sigma=0.5, rule=lambda p, s, g: (0.0, 0.25), name="narrow")
    with pytest.raises(ValidationError):
        generate_discontinuities(narrow, 2, 2, 0.5, RngStream(seed=505))
    escaping = IntervalAdversary(sigma=0.5, rule=lambda p, s, g: (0.8, 0.5), name="esc")
    with pytest.raises(ValidationError):
        generate_discontinuities(escaping, 2, 2, 0.5, RngStream(seed=505))
    with pytest.raises(ValidationError):
        generate_discontinuities(iid_uniform_adversary(), 0, 2, 0.5, RngStream(seed=505))
    with pytest.raises(ValidationError):
        generate_discontinuities(iid_uniform_adversary(), 2, 2, 1.5, RngStream(seed=505))


def test_generate_is_reproducible():
    a = generate_discontinuities(iid_uniform_adversary(), 10, 3, 1.0, RngStream(seed=506))
    b = generate_discontinuities(iid_uniform_adversary(), 10, 3, 1.0, RngStream(seed=506))
    c = generate_discontinuities(
        iid_uniform_adversary(), 10, 3, 1.0, RngStream(seed=506, stream_id=1)
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
    sample = DiscontinuitySample(
        points=np.array([[0.5]]), sigma=1.0, adversary="x", seed_info={}
    )
    with pytest.raises(ValidationError):
        max_interval_count(sample, 0.5, fn_index=np.array([0]))


def test_sweep_matches_brute_force():
    gen = RngStream(seed=508).generator()
    for _ in range(200):
        x, fn, w = _random_flat_instance(gen)
        assert max_interval_count(x, w, fn_index=fn) == max_interval_count_brute(
            x, w, fn_index=fn
        )


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
    with pytest.raises(ValidationError):
        dispersion_bound(10, 5, 0.1, 0.02, 1.0)


def test_default_window_width():
    assert default_window_width(100, 5, 0.1, alpha=0.5) == pytest.approx(0.1 * 500**-0.5)
    assert default_window_width(100, 5, 0.1, alpha=1.0) == pytest.approx(0.1)
    with pytest.raises(ValidationError):
        default_window_width(100, 5, 0.1, alpha=0.4)


def test_check_dispersed_k_equals_T_always_true():
    sample = generate_discontinuities(
        fixed_interval_adversary(0.1), 30, 4, 0.1, RngStream(seed=511)
    )
    ok, report = check_dispersed(sample, k=30)
    assert ok
    assert report.split <= report.total <= 120
    assert report.k == 30.0


def test_check_dispersed_refuses_negative_or_non_finite_k():
    sample = generate_discontinuities(iid_uniform_adversary(), 20, 2, 0.2, RngStream(seed=513))
    for k in (-5.0, -1e-12, math.nan, math.inf):
        with pytest.raises(ValidationError, match="k must be finite and >= 0"):
            check_dispersed(sample, k=k)
    ok, report = check_dispersed(sample, k=0)
    assert report.k == 0.0
    assert ok == (report.split == 0)


def test_check_dispersed_defaults():
    sample = generate_discontinuities(iid_uniform_adversary(), 100, 5, 0.1, RngStream(seed=512))
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
            iid_uniform_adversary(), 100, 5, 1.0, RngStream(seed=513, stream_id=i)
        )
        _, report = check_dispersed(sample, alpha=0.5, delta=0.05)
        if report.total > report.bound:
            exceed += 1
    assert exceed == 0


def test_check_dispersed_monte_carlo_densest_window():
    exceed = 0
    for i in range(15):
        sample = generate_discontinuities(
            densest_window_adversary(0.1), 100, 5, 0.1, RngStream(seed=514, stream_id=i)
        )
        _, report = check_dispersed(sample, alpha=0.5, delta=0.05)
        if report.total > report.bound:
            exceed += 1
    assert exceed == 0


def test_jsonl_round_trip():
    sample = generate_discontinuities(iid_uniform_adversary(), 6, 3, 1.0, RngStream(seed=515))
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
    sample = DiscontinuitySample(points=points, sigma=1.0, adversary="x", seed_info={})
    expected = "".join(
        json.dumps({"i": i + 1, "j": j + 1, "x": float(points[i, j])}) + "\n"
        for i in range(2)
        for j in range(3)
    )
    assert sample_to_jsonl(sample) == expected


def test_report_csv_format():
    sample = generate_discontinuities(iid_uniform_adversary(), 10, 2, 1.0, RngStream(seed=516))
    _, report = check_dispersed(sample)
    lines = report_csv(report).strip().split("\n")
    assert lines[0] == "w,total,split,bound,pass"
    w, total, split, bound, passed = lines[1].split(",")
    assert float(w) == report.w
    assert int(total) == report.total
    assert int(split) == report.split
    assert float(bound) == report.bound
    assert passed in ("0", "1")
