"""Statistical helpers shared by the diagnostics and the experiment harness.

Thin wrappers over scipy.stats plus the specific conventions used throughout
the laboratory: one-sided bound checks use the model probability q as the
variance scale (stderr = sqrt(q(1-q)/N)), and bootstrap intervals are seeded
percentile intervals with 10^4 resamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

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


def chi_square_uniform(counts: np.ndarray) -> tuple[float, float]:
    """Chi-square goodness of fit of observed category counts to the uniform law."""
    counts = np.asarray(counts, dtype=float)
    stat, p = sps.chisquare(counts)
    return float(stat), float(p)


def chi_square_fit(counts: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """Chi-square fit to a pmf; checks the pmf-round marginal of ``couple_adaptive``."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    expected = probs * counts.sum()
    keep = expected > 0
    stat, p = sps.chisquare(counts[keep], expected[keep])
    return float(stat), float(p)


def chi_square_table(table: np.ndarray) -> tuple[float, float]:
    """Chi-square test of independence / homogeneity on a contingency table.

    Rows or columns that are entirely zero are dropped (they carry no
    information and break the expected-count computation).
    """
    table = np.asarray(table, dtype=float)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return 0.0, 1.0
    stat, p, _, _ = sps.chi2_contingency(table, correction=False)
    return float(stat), float(p)


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
