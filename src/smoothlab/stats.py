"""Statistical helpers shared by the diagnostics and the experiment harness.

Pearson chi-square tests computed from their formulas, with p-values from
``scipy.special.chdtrc``, plus the conventions used throughout the
laboratory: one-sided bound checks use the model probability q as the
variance scale (stderr = sqrt(q(1-q)/N)), and bootstrap intervals are seeded
percentile intervals with 10^4 resamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from smoothlab.domain import as_generator

__all__ = [
    "chi_square_uniform",
    "chi_square_fit",
    "chi_square_table",
    "wilson_interval",
    "binomial_stderr",
    "one_sided_bound_check",
    "BoundCheck",
    "bootstrap_ratio_ci",
]

# Largest relative gap between the observed and expected totals of a fit.
_SUM_RTOL = math.sqrt(np.finfo(float).eps)


def _chi_square(observed: np.ndarray, expected: np.ndarray, dof: int) -> tuple[float, float]:
    """Pearson's statistic sum((o - e)^2 / e) and its upper chi-square tail at dof."""
    stat = ((observed - expected) ** 2 / expected).sum()
    return float(stat), float(chdtrc(dof, stat))


def chi_square_uniform(counts: np.ndarray) -> tuple[float, float]:
    """Chi-square goodness of fit of observed category counts to the uniform law."""
    counts = np.asarray(counts, dtype=float)
    return _chi_square(counts, counts.mean(), counts.size - 1)


def chi_square_fit(counts: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """Chi-square fit to a pmf; checks the pmf-round marginal of ``couple_adaptive``.

    Cells of zero probability are dropped.  Counts that fall on them leave
    the kept counts short of the expected total, which raises ValueError
    when the two totals differ by more than a relative sqrt(eps).
    """
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    expected = probs * counts.sum()
    keep = expected > 0
    observed, expected = counts[keep], expected[keep]
    got, want = observed.sum(), expected.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        if abs(got - want) / min(got, want) > _SUM_RTOL:
            raise ValueError(f"observed total {got} does not match expected total {want}")
    return _chi_square(observed, expected, observed.size - 1)


def chi_square_table(table: np.ndarray) -> tuple[float, float]:
    """Chi-square test of independence / homogeneity on a contingency table.

    Rows or columns that are entirely zero are dropped (they carry no
    information and break the expected-count computation).  The expected
    counts are the outer product of the row and column sums over the total.
    """
    table = np.asarray(table, dtype=float)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    rows, cols = table.shape
    if rows < 2 or cols < 2:
        return 0.0, 1.0
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / table.sum()
    return _chi_square(table, expected, (rows - 1) * (cols - 1))


def wilson_interval(successes: int, trials: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at z standard errors."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def binomial_stderr(q: float, trials: int) -> float:
    """Standard error sqrt(q(1-q)/N) at the model probability q."""
    q = min(max(q, 0.0), 1.0)
    return math.sqrt(q * (1.0 - q) / trials)


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of a one-sided empirical-rate-versus-bound comparison."""

    rate: float
    bound: float
    stderr: float
    z: float
    passed: bool

    @property
    def threshold(self) -> float:
        return self.bound + self.z * self.stderr


def one_sided_bound_check(successes: int, trials: int, bound: float, z: float = 3.0) -> BoundCheck:
    """Check empirical rate <= bound + z * sqrt(bound(1-bound)/N), one-sided."""
    rate = successes / trials
    se = binomial_stderr(bound, trials)
    return BoundCheck(rate=rate, bound=bound, stderr=se, z=z, passed=rate <= bound + z * se)


def bootstrap_ratio_ci(
    a: np.ndarray,
    b: np.ndarray,
    rng,
    statistic=np.median,
    n_resamples: int = 10_000,
    level: float = 0.95,
) -> tuple[float, float]:
    """Seeded percentile bootstrap interval for statistic(a)/statistic(b).

    Samples are resampled independently; resamples whose denominator is zero
    are discarded (an error is raised if all of them are).
    """
    gen = as_generator(rng)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    ia = gen.integers(a.size, size=(n_resamples, a.size))
    ib = gen.integers(b.size, size=(n_resamples, b.size))
    num = statistic(a[ia], axis=1)
    den = statistic(b[ib], axis=1)
    keep = den != 0
    if not np.any(keep):
        raise ValueError("all bootstrap denominators are zero")
    ratios = num[keep] / den[keep]
    lo = (1.0 - level) / 2.0
    return float(np.quantile(ratios, lo)), float(np.quantile(ratios, 1.0 - lo))
