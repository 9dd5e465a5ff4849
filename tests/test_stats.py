"""Tests for the shared statistical helpers."""

from __future__ import annotations

import numpy as np
import pytest

from smoothlab.domain import RngStream
from smoothlab.stats import (
    bootstrap_ratio_ci,
    chi_square_fit,
    chi_square_table,
    chi_square_uniform,
    one_sided_bound_check,
    wilson_interval,
)


def test_chi_square_uniform_accepts_uniform_counts():
    gen = RngStream(seed=101).generator()
    draws = gen.integers(0, 10, size=50_000)
    counts = np.bincount(draws, minlength=10)
    _, p = chi_square_uniform(counts)
    assert p > 0.001


def test_chi_square_uniform_rejects_skewed_counts():
    counts = np.array([9000, 1000, 1000, 1000])
    _, p = chi_square_uniform(counts)
    assert p < 1e-10


def test_chi_square_fit_matches_target_pmf():
    gen = RngStream(seed=103).generator()
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    draws = gen.choice(4, p=probs, size=50_000)
    counts = np.bincount(draws, minlength=4)
    _, p = chi_square_fit(counts, probs)
    assert p > 0.001


def test_chi_square_table_detects_dependence():
    independent = np.array([[250, 250], [250, 250]])
    _, p_ind = chi_square_table(independent)
    assert p_ind > 0.9
    dependent = np.array([[400, 100], [100, 400]])
    _, p_dep = chi_square_table(dependent)
    assert p_dep < 1e-10


def test_chi_square_table_drops_empty_rows():
    table = np.array([[100, 100], [0, 0], [90, 110]])
    _, p = chi_square_table(table)
    assert 0.0 <= p <= 1.0


def test_wilson_interval_contains_point_estimate():
    lo, hi = wilson_interval(30, 100, z=3.0)
    assert lo <= 0.3 <= hi
    assert 0.0 <= lo < hi <= 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_one_sided_bound_check():
    ok = one_sided_bound_check(5, 1000, bound=0.01, z=3.0)
    assert ok.passed
    assert ok.rate == 0.005
    bad = one_sided_bound_check(50, 1000, bound=0.01, z=3.0)
    assert not bad.passed
    # Degenerate bound 0 admits only a zero empirical rate.
    edge = one_sided_bound_check(0, 1000, bound=0.0, z=3.0)
    assert edge.passed
    assert not one_sided_bound_check(1, 1000, bound=0.0, z=3.0).passed


def test_bootstrap_ratio_ci_identical_samples_covers_one():
    gen = RngStream(seed=109).generator()
    values = gen.normal(5.0, 1.0, size=150)
    lo, hi = bootstrap_ratio_ci(values, values.copy(), RngStream(seed=6), n_resamples=2000)
    assert lo <= 1.0 <= hi
