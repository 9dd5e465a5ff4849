"""Tests for the shared statistical helpers."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from smoothlab.domain import RngStream, ValidationError
from smoothlab.stats import (
    bootstrap_ratio_ci,
    chi_square_fit,
    chi_square_table,
    chi_square_uniform,
    median,
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


# Counts up to 10^6, zero half of the time, so that zero cells, zero rows and
# zero columns all come up.
COUNT = st.one_of(st.just(0), st.integers(0, 10**6))


def _same(got: tuple[float, float], want) -> bool:
    """Bit-equal statistic and p-value; NaN matches NaN (one cell, all zero)."""
    return np.array_equal(np.asarray(got), np.asarray(want, dtype=float), equal_nan=True)


# scipy.stats is the oracle for the formulas in smoothlab.stats, which does not
# import it. Both warn on the same degenerate inputs (one cell, all zero).
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.lists(COUNT, min_size=1, max_size=12))
def test_chi_square_uniform_equals_scipy(counts):
    counts = np.array(counts)
    want = sps.chisquare(counts.astype(float))
    assert _same(chi_square_uniform(counts), (want.statistic, want.pvalue))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chi_square_fit_equals_scipy(data):
    k = data.draw(st.integers(1, 12))
    weights = np.array(data.draw(st.lists(COUNT, min_size=k, max_size=k)), dtype=float)
    if weights.sum() == 0:
        weights[0] = 1.0
    probs = weights / weights.sum()
    # Counts only on cells of positive probability; the other case raises.
    counts = np.array(data.draw(st.lists(COUNT, min_size=k, max_size=k))) * (probs > 0)
    expected = probs * counts.sum()
    keep = expected > 0
    try:
        want = sps.chisquare(counts[keep].astype(float), expected[keep])
    except ValueError:
        with pytest.raises(ValueError):
            chi_square_fit(counts, probs)
        return
    assert _same(chi_square_fit(counts, probs), (want.statistic, want.pvalue))


def test_chi_square_fit_refuses_counts_on_a_zero_probability_cell():
    # The last case is short by a relative 5e-7, above sqrt(eps) = 1.5e-8.
    for counts, probs in (
        ([40, 50, 10], [0.5, 0.5, 0.0]),
        ([0, 7], [1.0, 0.0]),
        ([10**6, 10**6, 1], [0.5, 0.5, 0.0]),
    ):
        with pytest.raises(ValueError):
            chi_square_fit(np.array(counts), np.array(probs))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chi_square_table_equals_scipy(data):
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    table = np.array(data.draw(st.lists(COUNT, min_size=rows * cols, max_size=rows * cols)))
    table = table.reshape(rows, cols)
    kept = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0].astype(float)
    if kept.size == 0:
        want = (0.0, 1.0)
    else:
        # One kept row or column has zero degrees of freedom: scipy gives (0, 1).
        res = sps.chi2_contingency(kept, correction=False)
        want = (res.statistic, res.pvalue)
    assert _same(chi_square_table(table), want)


def test_importing_the_package_loads_no_scipy_stats():
    # scipy.stats costs about a second at import; the package needs only scipy.special.
    code = (
        "import sys, smoothlab, smoothlab.harness, smoothlab.cli; "
        "print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "False"


_SCIPY_AFTER = """
import json, sys, tempfile
import smoothlab, smoothlab.harness, smoothlab.cli
from smoothlab.harness import make_config, run_experiment
with tempfile.TemporaryDirectory() as tmp:
    for i, (kind, params, trials) in enumerate(json.loads(sys.argv[1])):
        run_experiment(make_config(kind, params, trials, seed=0), f"{tmp}/{i}")
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""


def _scipy_modules_after(runs: list) -> list[str]:
    """The scipy modules loaded by a fresh process that imports the package and
    makes the given (kind, params, trials) runs."""
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_AFTER, json.dumps(runs)],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(out.stdout)


def test_runs_that_need_no_special_function_load_no_scipy():
    # Only the chi-square marginals and the slab sampler call into scipy, and
    # each imports it where it is called.
    shell = {"n": 4, "T": 32, "adversary": "adaptive-shell", "sigma": 0.25}
    runs = [
        ["discrepancy", {**shell, "algorithm": "potential", "M": 16}, 2],
        ["discrepancy", {**shell, "algorithm": "selfbalancing"}, 2],
        ["learning", {"m": 8, "d": 2, "T": 32}, 2],
        ["learning", {"m": 8, "d": 2, "T": 32, "adversary": "mistake-tree"}, 2],
        ["dispersion", {"T": 10, "ell": 2, "sigma": 0.2, "adversary": "densest-window"}, 2],
        ["coupling", {"n": 4, "sigma": 0.5, "T": 2, "adversary": "last-value"}, 9_999],
    ]
    assert _scipy_modules_after(runs) == []


@pytest.mark.parametrize(
    "run",
    [
        # The slab sampler inverts an incomplete beta function.
        ["discrepancy-lowerbound", {"n": 4, "T": 16}, 2],
        # 10,000 traces: summarize runs the chi-square marginals.
        ["coupling", {"n": 4, "sigma": 0.5, "T": 2, "k": 3, "adversary": "last-value"}, 10_000],
    ],
)
def test_runs_that_need_a_special_function_load_scipy_special(run):
    assert "scipy.special" in _scipy_modules_after([run])


def test_summaries_load_no_numpy_ma():
    # np.median would load numpy.ma (about 12 ms and 1.3 MiB), so summarize
    # takes its medians through stats.median.  Only the bootstrap of
    # compare_runs still calls np.median.
    code = """
import sys, tempfile
from smoothlab.harness import make_config, run_experiment, summarize
assert "numpy.ma" not in sys.modules
with tempfile.TemporaryDirectory() as tmp:
    run_experiment(make_config("coupling", {"n": 16, "sigma": 0.25, "T": 8}, 50, 3), tmp)
    summarize(tmp)
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "False"


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
    lo, hi = bootstrap_ratio_ci(
        values, values.copy(), RngStream(seed=6).generator(), n_resamples=2000
    )
    assert lo <= 1.0 <= hi


# Floats with many repeats: a few special values plus small integers and
# ordinary floats, so sorted runs, ties, signed zeros and NaN all occur.
_MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf"), float("nan")]),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=500, deadline=None)
@given(values=st.lists(_MEDIAN_VALUES, min_size=1, max_size=50))
def test_median_equals_numpy_median_bit_for_bit(values):
    arr = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):  # the mean of inf and -inf, as np.median takes it
        got, want = median(arr), np.median(arr)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert arr.tobytes() == np.asarray(values, dtype=float).tobytes()  # input untouched


def test_median_of_odd_and_even_sizes():
    assert median(np.array([3.0, 1.0, 2.0])) == 2.0
    assert median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.5
    assert np.isnan(median(np.array([1.0, float("nan"), 0.0])))


def test_bootstrap_ratio_ci_needs_a_resample():
    a = np.array([1.0, 2.0, 3.0])
    for n_resamples in (0, -3):
        with pytest.raises(ValidationError, match="n_resamples"):
            bootstrap_ratio_ci(a, a, RngStream(seed=1).generator(), n_resamples=n_resamples)
