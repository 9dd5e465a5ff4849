"""Adaptively smoothed discontinuity sequences and window-dispersion counts.

A sample holds T*ell points in [0, 1], row i collecting the ell
discontinuities of function i.  The generator walks the T*ell steps in row
order; at each step the adversary names a subinterval of [0, 1] of width at
least sigma and the point is drawn uniformly inside it, so the sequence is
sigma-smooth no matter how the adversary adapts.

Counting conventions: the total count maximizes over closed width-w windows,
and the maximum is attained with the window's left edge at a data point (slide
any optimal window right until its left edge hits one).  The split count asks
for distinct function indices strictly inside the window; the supremum over
windows equals the maximum over anchored half-open windows [p, p + w), because
an open window's point set has a minimal element p and is contained in
[p, p + w), while [p, p + w) is realized in the limit by (p - eps, p - eps + w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import ValidationError, require_sigma

__all__ = [
    "DiscontinuitySample",
    "DispersionReport",
    "IntervalAdversary",
    "check_dispersed",
    "densest_window_adversary",
    "default_window_width",
    "dispersion_bound",
    "fixed_interval_adversary",
    "generate_discontinuities",
    "iid_uniform_adversary",
    "max_interval_count",
    "max_interval_count_brute",
    "report_csv",
    "sample_to_jsonl",
    "split_ceiling",
]


@dataclass(frozen=True)
class IntervalAdversary:
    """Adaptive interval source: maps the points so far to the next interval.

    ``rule(points_so_far, step, gen)`` returns (lo, width);
    generate_discontinuities checks width against its own ``sigma`` argument,
    and containment in [0, 1], before drawing.  ``sigma`` is the source's
    declared smoothness; no game reads it.
    ``points_so_far`` is a read-only view of the generator's draw history, so
    a rule that writes into it raises instead of changing later draws; a rule
    that needs a scratch copy makes its own.
    """

    sigma: float
    rule: Callable[[np.ndarray, int, np.random.Generator], tuple[float, float]]
    name: str = "custom"


def iid_uniform_adversary() -> IntervalAdversary:
    """Fully smooth source: every step draws uniform on all of [0, 1]."""
    return IntervalAdversary(
        sigma=1.0, rule=lambda pts, step, gen: (0.0, 1.0), name="iid-uniform"
    )


def fixed_interval_adversary(sigma: float, lo: float = 0.0) -> IntervalAdversary:
    """Oblivious source concentrating every point on one width-sigma interval."""
    require_sigma(sigma)
    if not (0.0 <= lo <= 1.0 - sigma):
        raise ValidationError(f"interval [{lo}, {lo + sigma}] escapes [0, 1]")
    return IntervalAdversary(
        sigma=sigma, rule=lambda pts, step, gen: (lo, sigma), name="fixed-interval"
    )


class _DensestWindowRule:
    """The densest-window rule over an incrementally sorted copy of the points.

    ``xs`` holds the points seen so far in sorted order, ``edges`` holds
    ``xs + sigma`` and ``counts[a]`` the number of points from sorted position
    a on that lie in the closed window [xs[a], edges[a]].  These are the
    values a sort and ``searchsorted(xs, xs + sigma, "right") - arange(n)``
    give, compared by the same floating-point comparisons, so the first
    argmax names the same anchor.  A point p lands at
    i = ``searchsorted(xs, p, "right")``; the anchors before it whose window
    reaches p, from j = ``searchsorted(edges, p, "left")`` on, gain one.

    Making room at i shifts the tails of the three arrays up by one slot.
    Each shift goes through a memoryview of its array: numpy copies an
    overlapping slice assignment through a temporary buffer, while a
    memoryview assignment is one memmove.

    ``seen`` holds the raw float64 bytes of the points in draw order.  A call
    whose ``pts`` does not start with those bytes starts over from empty, so
    the answer is a function of ``pts`` alone even when one rule serves
    several sequences.  The test is bitwise: -0.0 differs from 0.0, and a NaN
    matches only a NaN with the same bits.  It is one memcmp of ``seen``
    against the contiguous points in place, and ``seen`` grows by the bytes
    of the new points only.
    """

    def __init__(self, sigma: float) -> None:
        self.sigma = sigma
        self.n = 0
        self.seen = bytearray()
        self.xs = np.empty(0)
        self.edges = np.empty(0)
        self.counts = np.empty(0, dtype=np.int64)
        self.views = ()

    def __call__(self, pts: np.ndarray, step: int, gen: np.random.Generator) -> tuple[float, float]:
        pts = np.ascontiguousarray(pts, dtype=float)
        if pts.size == 0:
            return 0.0, self.sigma
        n = self.n
        if pts.size < n or not self.seen.startswith(pts[:n]):
            n = 0
            self.seen.clear()
        self.seen += memoryview(pts[n:])
        if pts.size > self.xs.size:
            self._reserve(max(pts.size, 2 * self.xs.size))
        for p in pts[n:].tolist():
            self._insert(p, n)
            n += 1
        self.n = n
        anchor = int(self.counts[:n].argmax())
        return min(max(float(self.xs[anchor]), 0.0), 1.0 - self.sigma), self.sigma

    def _reserve(self, capacity: int) -> None:
        for name in ("xs", "edges", "counts"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: self.n] = old[: self.n]
            setattr(self, name, grown)
        self.views = tuple(memoryview(arr) for arr in (self.xs, self.edges, self.counts))

    def _insert(self, p: float, n: int) -> None:
        xs, edges, counts = self.xs, self.edges, self.counts
        i = int(xs[:n].searchsorted(p, "right"))
        j = int(edges[:n].searchsorted(p, "left"))
        counts[j:i] += 1
        for view in self.views:
            view[i + 1 : n + 1] = view[i:n]
        xs[i] = p
        edges[i] = p + self.sigma
        counts[i] = int(xs[: n + 1].searchsorted(edges[i], "right")) - i


def densest_window_adversary(sigma: float) -> IntervalAdversary:
    """Adaptive source that re-aims at the currently densest width-sigma window.

    The interval starts at the first sorted point whose closed width-sigma
    window holds the most points (clamped into [0, 1 - sigma]).  The rule keeps
    the points sorted as they arrive, so a step costs a few O(n) memmoves and
    one byte compare of the history, not a sort.
    """
    require_sigma(sigma)
    return IntervalAdversary(sigma=sigma, rule=_DensestWindowRule(sigma), name="densest-window")


@dataclass(frozen=True, eq=False)
class DiscontinuitySample:
    """T*ell discontinuity locations: row i holds the cuts of function i."""

    points: np.ndarray  # shape (T, ell)
    sigma: float
    adversary: str

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.size == 0:
            raise ValidationError(f"points must be a nonempty (T, ell) array, got {pts.shape}")
        if not np.isfinite(pts).all() or pts.min() < 0.0 or pts.max() > 1.0:
            raise ValidationError("all points must lie in [0, 1]")
        object.__setattr__(self, "points", pts)

    @property
    def T(self) -> int:
        return int(self.points.shape[0])

    @property
    def ell(self) -> int:
        return int(self.points.shape[1])

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, function index) pairs in row order; indices are 0-based."""
        x = self.points.ravel()
        fn = np.repeat(np.arange(self.T), self.ell)
        return x, fn


def generate_discontinuities(
    adv: IntervalAdversary,
    T: int,
    ell: int,
    sigma: float,
    gen: np.random.Generator,
) -> DiscontinuitySample:
    """Draw the T*ell points sequentially, enforcing the smoothness floor.

    The adversary sees a read-only view of every point drawn so far
    (flattened, in draw order) and must emit an interval of width >= sigma
    inside [0, 1]; narrower or escaping intervals raise, and so does a NaN
    ``lo`` or ``width``, at the step that emits it.  Its own declared
    sigma may exceed the floor (a 1-smooth source is also sigma-smooth for any
    smaller sigma).
    """
    require_sigma(sigma)
    if T < 1 or ell < 1:
        raise ValidationError(f"need T >= 1 and ell >= 1, got T={T}, ell={ell}")
    flat = np.empty(T * ell)
    drawn = flat.view()
    drawn.flags.writeable = False
    for step in range(T * ell):
        lo, width = adv.rule(drawn[:step], step, gen)
        lo = float(lo)
        width = float(width)
        if not (width >= sigma - 1e-12):
            raise ValidationError(
                f"adversary {adv.name!r} emitted width {width!r} below the "
                f"smoothness floor {sigma!r} at step {step}"
            )
        if not (lo >= -1e-12 and lo + width <= 1.0 + 1e-12):
            raise ValidationError(
                f"adversary {adv.name!r} emitted [{lo!r}, {lo + width!r}] "
                f"escaping [0, 1] at step {step}"
            )
        lo = min(max(lo, 0.0), 1.0 - width)
        flat[step] = lo + gen.random() * width
    return DiscontinuitySample(points=flat.reshape(T, ell), sigma=sigma, adversary=adv.name)


def _flatten_input(
    points, fn_index
) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(points, DiscontinuitySample):
        if fn_index is not None:
            raise ValidationError("fn_index is implied by a DiscontinuitySample")
        return points.flat()
    x = np.asarray(points, dtype=float).ravel()
    if fn_index is None:
        fn = np.arange(x.size)
    else:
        fn = np.asarray(fn_index, dtype=int).ravel()
        if fn.shape != x.shape:
            raise ValidationError(
                f"fn_index length {fn.size} does not match {x.size} points"
            )
    return x, fn


def max_interval_count(points, w: float, fn_index=None) -> tuple[int, int]:
    """(total, split) over width-w windows by a sort + two-pointer sweep.

    total: most points in a closed window [p, p + w], left edge anchored at a
    point.  split: most distinct function indices strictly inside a window,
    via the anchored half-open scan [p, p + w).  ``points`` is a
    DiscontinuitySample or a flat array; standalone arrays default to one
    function per point unless fn_index says otherwise.
    """
    if not (0.0 < w <= 1.0):
        raise ValidationError(f"w must lie in (0, 1], got {w!r}")
    x, fn = _flatten_input(points, fn_index)
    if x.size == 0:
        return 0, 0
    order = np.argsort(x, kind="stable")
    xs = x[order]
    fns = fn[order]
    n = xs.size

    highs_closed = np.searchsorted(xs, xs + w, side="right")
    total = int((highs_closed - np.arange(n)).max())

    split = 0
    counts: dict[int, int] = {}
    distinct = 0
    right = 0
    for left in range(n):
        while right < n and xs[right] < xs[left] + w:
            f = int(fns[right])
            counts[f] = counts.get(f, 0) + 1
            if counts[f] == 1:
                distinct += 1
            right += 1
        if right == left:
            # xs[left] + w rounded to xs[left] (w under half an ulp), so the
            # window is empty: pass over xs[left] without adding it.
            right += 1
            continue
        split = max(split, distinct)
        f = int(fns[left])
        counts[f] -= 1
        if counts[f] == 0:
            distinct -= 1
    return total, split


def max_interval_count_brute(points, w: float, fn_index=None) -> tuple[int, int]:
    """Reference counter by direct comparison at every anchor point."""
    if not (0.0 < w <= 1.0):
        raise ValidationError(f"w must lie in (0, 1], got {w!r}")
    x, fn = _flatten_input(points, fn_index)
    total = 0
    split = 0
    for p in x:
        inside_closed = (x >= p) & (x <= p + w)
        total = max(total, int(inside_closed.sum()))
        inside_half_open = (x >= p) & (x < p + w)
        split = max(split, len(set(fn[inside_half_open].tolist())))
    return total, split


def dispersion_bound(T: int, ell: int, sigma: float, w: float, delta: float) -> float:
    """High-probability ceiling on the total window count for smooth sequences.

    With q = (T*ell*w/sigma) * ln(2*T*ell/delta), the bound is
    q + 10*sqrt(q*ln(1/delta)) + 10*ln(10*T*ell*ln(2*T*ell/delta)/(sigma*delta)).
    All logarithms are natural.
    """
    if T < 1 or ell < 1:
        raise ValidationError(f"need T >= 1 and ell >= 1, got T={T}, ell={ell}")
    require_sigma(sigma)
    if not (0.0 < w <= 1.0):
        raise ValidationError(f"w must lie in (0, 1], got {w!r}")
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must lie in (0, 1), got {delta!r}")
    n = T * ell
    log_term = math.log(2.0 * n / delta)
    q = n * w / sigma * log_term
    return (
        q
        + 10.0 * math.sqrt(q * math.log(1.0 / delta))
        + 10.0 * math.log(10.0 * n * log_term / (sigma * delta))
    )


def default_window_width(T: int, ell: int, sigma: float, alpha: float = 0.5) -> float:
    """Window convention w = sigma * (T*ell)^(alpha - 1) for alpha in [0.5, 1]."""
    if not (0.5 <= alpha <= 1.0):
        raise ValidationError(f"alpha must lie in [0.5, 1], got {alpha!r}")
    return sigma * float(T * ell) ** (alpha - 1.0)


def split_ceiling(k: float | None, bound: float) -> float:
    """The k a sample's split count is held to: ``bound`` when k is None.

    A given k must be finite and at least 0; a negative or NaN k would fail
    every sample and an infinite one pass every sample, whatever the data.
    """
    if k is None:
        return bound
    if not (0.0 <= k < math.inf):
        raise ValidationError(f"k must be finite and >= 0, got {k!r}")
    return float(k)


@dataclass(frozen=True)
class DispersionReport:
    """Window counts of one sample against the lemma's ceiling."""

    w: float
    total: int
    split: int
    bound: float
    k: float
    passed: bool
    alpha: float
    delta: float
    n_points: int

    def __post_init__(self) -> None:
        if self.split > self.total:
            raise ValidationError(
                f"split count {self.split} exceeds total count {self.total}"
            )
        if self.total > self.n_points:
            raise ValidationError(
                f"total count {self.total} exceeds the number of points {self.n_points}"
            )


def check_dispersed(
    sample: DiscontinuitySample,
    w: float | None = None,
    k: float | None = None,
    alpha: float = 0.5,
    delta: float = 0.05,
) -> tuple[bool, DispersionReport]:
    """Test (w, k)-dispersion: at most k functions split any width-w window.

    Defaults follow the smoothed-sequence guarantee: w = sigma*(T*ell)^(alpha-1)
    and k = dispersion_bound at the given delta.  The report also carries the
    total count so callers can compare it against the same ceiling.
    """
    if w is None:
        w = default_window_width(sample.T, sample.ell, sample.sigma, alpha)
    elif not (0.5 <= alpha <= 1.0):
        raise ValidationError(f"alpha must lie in [0.5, 1], got {alpha!r}")
    bound = dispersion_bound(sample.T, sample.ell, sample.sigma, w, delta)
    k = split_ceiling(k, bound)
    total, split = max_interval_count(sample, w)
    report = DispersionReport(
        w=float(w),
        total=total,
        split=split,
        bound=bound,
        k=k,
        passed=split <= k,
        alpha=alpha,
        delta=delta,
        n_points=sample.T * sample.ell,
    )
    return report.passed, report


def sample_to_jsonl(sample: DiscontinuitySample) -> str:
    """One line {"i", "j", "x"} per point, 1-based indices, row order.

    The text is what ``json.dumps`` writes: JSON spells a finite float as its
    shortest round-trip ``repr``, and every point is finite.
    """
    return "".join(
        f'{{"i": {i}, "j": {j}, "x": {x!r}}}\n'
        for i, row in enumerate(sample.points.tolist(), 1)
        for j, x in enumerate(row, 1)
    )


def report_csv(report: DispersionReport) -> str:
    """CSV with header w, total, split, bound, pass (pass rendered as 0/1)."""
    return (
        "w,total,split,bound,pass\n"
        f"{report.w!r},{report.total},{report.split},{report.bound!r},"
        f"{int(report.passed)}\n"
    )
