"""Statistical helpers shared by the diagnostics and the experiment harness.

Pearson chi-square tests computed from their formulas, with p-values from
``scipy.special.chdtrc``, plus the conventions used throughout the
laboratory: one-sided bound checks use the model probability q as the
variance scale (stderr = sqrt(q(1-q)/N)), and bootstrap intervals are seeded
percentile intervals with 10^4 resamples.  ``chdtrc`` is imported by the
first chi-square test, so a process that computes none never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import ValidationError

__all__ = [
    "chi_square_uniform",
    "chi_square_fit",
    "chi_square_table",
    "wilson_interval",
    "binomial_stderr",
    "one_sided_bound_check",
    "BoundCheck",
    "bootstrap_ratio_ci",
    "median",
]

# Largest relative gap between the observed and expected totals of a fit.
_SUM_RTOL = math.sqrt(np.finfo(float).eps)

# Coverage of every bootstrap interval.
_BOOTSTRAP_LEVEL = 0.95

# Index cells drawn per block of bootstrap resamples.
_BOOTSTRAP_BLOCK = 2**18


def _chi_square(observed: np.ndarray, expected: np.ndarray, dof: int) -> tuple[float, float]:
    """Pearson's statistic sum((o - e)^2 / e) and its upper chi-square tail at dof."""
    from scipy.special import chdtrc

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
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    rate = successes / trials
    se = binomial_stderr(bound, trials)
    return BoundCheck(rate=rate, bound=bound, stderr=se, z=z, passed=rate <= bound + z * se)


def median(values: np.ndarray) -> float | np.ndarray:
    """``np.median(values, axis=-1)`` of a float array, bit for bit, in numpy's own
    steps: a partition at the middle index or indices and at -1, the mean of the
    middle slice, and NaN where the last partitioned value is NaN.  A 1-D array
    gives a float.  Unlike ``np.median``, it never loads ``numpy.ma``."""
    half = values.shape[-1] // 2
    middle = [half - 1, half] if values.shape[-1] % 2 == 0 else [half]
    part = np.partition(values, middle + [-1], axis=-1)
    last = part[..., -1]
    centre = np.where(np.isnan(last), last, part[..., middle[0] : half + 1].mean(axis=-1))
    return float(centre) if values.ndim == 1 else centre


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` of a nonempty 1-D float array, bit for bit, in the
    steps of numpy's linear method, whose ``np.unique`` call loads ``numpy.ma``."""
    index = (values.size - 1) * q
    below = -1 if index >= values.size - 1 else math.floor(index)
    above = -1 if below == -1 else below + 1
    part = np.partition(values, [0, -1, below, above])
    lo, hi, gamma = part[below], part[above], index - below
    mixed = hi - (hi - lo) * (1 - gamma) if gamma >= 0.5 else lo + (hi - lo) * gamma
    return float(part[-1] if np.isnan(part[-1]) else mixed)


def _resample_medians(x: np.ndarray, gen: np.random.Generator, n_resamples: int) -> np.ndarray:
    """``median(x[gen.integers(x.size, size=(n_resamples, x.size))])`` drawn in row
    blocks of about _BOOTSTRAP_BLOCK cells: the same values and end state of ``gen``,
    in bounded memory."""
    rows = max(1, _BOOTSTRAP_BLOCK // x.size)
    blocks = (min(rows, n_resamples - start) for start in range(0, n_resamples, rows))
    return np.concatenate([median(x[gen.integers(x.size, size=(r, x.size))]) for r in blocks])


def bootstrap_ratio_ci(
    a: np.ndarray,
    b: np.ndarray,
    gen: np.random.Generator,
    n_resamples: int = 10_000,
) -> tuple[float, float]:
    """95% percentile bootstrap interval for median(a)/median(b), drawn from ``gen``.

    Samples are resampled independently; resamples whose denominator is zero
    are discarded (an error is raised if all of them are).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if n_resamples < 1:
        raise ValidationError(f"n_resamples must be at least 1, got {n_resamples}")
    num = _resample_medians(a, gen, n_resamples)
    den = _resample_medians(b, gen, n_resamples)
    keep = den != 0
    if not np.any(keep):
        raise ValueError("all bootstrap denominators are zero")
    ratios = num[keep] / den[keep]
    lo = (1.0 - _BOOTSTRAP_LEVEL) / 2.0
    return _quantile(ratios, lo), _quantile(ratios, 1.0 - lo)
