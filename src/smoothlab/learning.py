"""Smoothed online prediction for unions of per-block thresholds.

The hypothesis class lives on the integer domain [m] split into d contiguous
equal blocks; a hypothesis carries one threshold per block and predicts 1 on
points at or above their block's threshold.  With m = 1/sigma every
distribution on [m] corresponds to a sigma-smooth density on [0, 1] (each
integer cell has width exactly sigma), so adversaries here may play point
masses and remain smooth.

The module provides the uniform-distance cover, Hedge over the cover in log
domain, exact best-in-hindsight and net-error oracles, the game loop, and the
label sources.  Every source is a ``SmoothLabelAdversary``; the binary-search
lower-bound adversary is one whose rule keeps its own state.  Blocks are
disjoint and the cover is a full product grid, so the oracles and the learner
all decompose across blocks: Hedge over the cover is d per-block Hedge
instances sharing one eta, and no run builds anything of the cover's size.

A block grid is strictly increasing, so at a point x its thresholds predict
1 up to c = bisect_right(grid, x) and 0 after: every loss row a game charges
is a window of one of two step arrays built once per block, and no round
compares x with the grid.  Hedge states are immutable (their arrays are
read-only), so each state computes its probabilities at most once, however
many rounds read them.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .domain import RngStream, ValidationError, require_stream

__all__ = [
    "BlockMistakeTracker",
    "CoverGrid",
    "HedgeState",
    "Hypothesis",
    "LEARNERS",
    "RegretLedger",
    "SmoothLabelAdversary",
    "ThresholdUnionClass",
    "best_in_hindsight",
    "best_in_hindsight_brute",
    "build_cover",
    "constant_label_adversary",
    "cover_distance_profile",
    "hedge_expected_regret",
    "hedge_step",
    "hypothesis_distance",
    "make_hedge",
    "mistake_tree_adversary",
    "net_error",
    "net_error_brute",
    "run_learning_game",
    "stationary_smooth_adversary",
]

_ENUMERATION_CAP = 1 << 20


def _is_power_of_two(v: int) -> bool:
    return v >= 1 and (v & (v - 1)) == 0


@dataclass(frozen=True)
class ThresholdUnionClass:
    """Per-block threshold hypotheses on [m] with d equal contiguous blocks."""

    m: int
    d: int

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.m):
            raise ValidationError(f"m must be a power of two, got {self.m}")
        if not _is_power_of_two(self.d):
            raise ValidationError(f"d must be a power of two, got {self.d}")
        if self.d > self.m:
            raise ValidationError(f"d must divide m, got d={self.d} > m={self.m}")

    @property
    def block_size(self) -> int:
        return self.m // self.d

    @property
    def sigma(self) -> float:
        return 1.0 / self.m

    def block_of(self, x: int) -> int:
        """0-based block index of a domain point in 1..m."""
        if not (1 <= x <= self.m):
            raise ValidationError(f"point {x} outside domain 1..{self.m}")
        return (x - 1) // self.block_size

    def block_range(self, i: int) -> tuple[int, int]:
        """Inclusive (lo, hi) of block i."""
        if not (0 <= i < self.d):
            raise ValidationError(f"block index {i} outside 0..{self.d - 1}")
        lo = i * self.block_size + 1
        return lo, lo + self.block_size - 1

    def n_hypotheses(self) -> int:
        return self.block_size**self.d

    def enumerate_hypotheses(self) -> list["Hypothesis"]:
        """All (m/d)^d hypotheses; guarded to desk scale."""
        if self.n_hypotheses() > _ENUMERATION_CAP:
            raise ValidationError(
                f"enumeration of {self.n_hypotheses()} hypotheses exceeds the "
                f"desk-scale cap {_ENUMERATION_CAP}"
            )
        ranges = []
        for i in range(self.d):
            lo, hi = self.block_range(i)
            ranges.append(range(lo, hi + 1))
        return [Hypothesis(self, gamma) for gamma in itertools.product(*ranges)]


@dataclass(frozen=True)
class Hypothesis:
    """One threshold per block; predicts 1 at x iff x >= gamma[block(x)]."""

    cls: ThresholdUnionClass
    gamma: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.gamma) != self.cls.d:
            raise ValidationError(
                f"gamma must have {self.cls.d} entries, got {len(self.gamma)}"
            )
        for i, g in enumerate(self.gamma):
            lo, hi = self.cls.block_range(i)
            if not (lo <= g <= hi):
                raise ValidationError(f"gamma[{i}]={g} outside its block {lo}..{hi}")

    def predict(self, x: int) -> int:
        return int(x >= self.gamma[self.cls.block_of(x)])

    def predict_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=int)
        blocks = (xs - 1) // self.cls.block_size
        thresholds = np.asarray(self.gamma, dtype=int)[blocks]
        return (xs >= thresholds).astype(int)


def hypothesis_distance(h1: Hypothesis, h2: Hypothesis) -> float:
    """Uniform-distance sum_i |gamma_i - gamma'_i| / m; the metric of the beta-cover
    radius that the ``build_cover`` tests check.

    Equals the disagreement probability under the uniform distribution on [m]
    because the per-block symmetric difference is the integer interval between
    the two thresholds.
    """
    if h1.cls != h2.cls:
        raise ValidationError("hypotheses belong to different classes")
    return sum(abs(a - b) for a, b in zip(h1.gamma, h2.gamma)) / h1.cls.m


@dataclass(frozen=True)
class CoverGrid:
    """Product grid of per-block thresholds with spacing max(1, floor(beta*m/d)).

    Every class hypothesis has a grid neighbor whose per-block threshold gaps
    sum to at most beta*m, so the grid is a beta-cover in uniform distance.
    When beta*m/d < 1 the spacing floors at one index and the grid is the
    whole class.  The cover is held as its d block grids; its hypotheses are
    their product in ``itertools.product`` order.  Each block grid must be
    nonempty and strictly increasing inside its block: the game reads a
    round's predictions off a grid's sorted order.
    """

    cls: ThresholdUnionClass
    beta: float
    spacing: int
    block_grids: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.block_grids) != self.cls.d:
            raise ValidationError(
                f"need {self.cls.d} block grids, got {len(self.block_grids)}"
            )
        for i, grid in enumerate(self.block_grids):
            lo, hi = self.cls.block_range(i)
            if not (
                grid
                and lo <= grid[0]
                and grid[-1] <= hi
                and all(a < b for a, b in zip(grid, grid[1:]))
            ):
                raise ValidationError(
                    f"block grid {i} must be nonempty and strictly increasing "
                    f"inside {lo}..{hi}"
                )

    @property
    def size(self) -> int:
        return math.prod(len(g) for g in self.block_grids)

    @property
    def hypotheses(self) -> tuple[Hypothesis, ...]:
        """Every cover hypothesis, in ``itertools.product`` order; guarded to
        desk scale.  Only the enumerating oracles read it."""
        if self.size > _ENUMERATION_CAP:
            raise ValidationError(
                f"enumeration of a cover of size {self.size} exceeds the "
                f"desk-scale cap {_ENUMERATION_CAP}"
            )
        return tuple(
            Hypothesis(self.cls, gamma) for gamma in itertools.product(*self.block_grids)
        )


def build_cover(cls: ThresholdUnionClass, beta: float) -> CoverGrid:
    """Construct the per-block threshold grid cover for a radius beta in (0, 1]."""
    if not (0.0 < beta <= 1.0):
        raise ValidationError(f"beta must lie in (0, 1], got {beta!r}")
    spacing = max(1, math.floor(beta * cls.m / cls.d))
    grids = []
    for i in range(cls.d):
        lo, hi = cls.block_range(i)
        grids.append(tuple(range(lo, hi + 1, spacing)))
    return CoverGrid(cls=cls, beta=beta, spacing=spacing, block_grids=tuple(grids))


def cover_distance_profile(cover: CoverGrid) -> float:
    """Exhaustive max over the class of min over the cover of uniform distance:
    the oracle that a ``build_cover`` grid is a beta-cover.

    Decomposes per block: the worst class hypothesis picks, in each block, the
    threshold farthest from that block's grid.
    """
    cls = cover.cls
    worst = 0.0
    for i in range(cls.d):
        lo, hi = cls.block_range(i)
        grid = np.asarray(cover.block_grids[i], dtype=int)
        gammas = np.arange(lo, hi + 1)
        gaps = np.abs(gammas[:, None] - grid[None, :]).min(axis=1)
        worst += float(gaps.max())
    return worst / cls.m


@dataclass(frozen=True, eq=False)
class HedgeState:
    """Log-domain multiplicative weights over a finite expert set.

    A state never changes: building one makes its ``log_w`` and
    ``cum_losses`` read-only, and ``hedge_step`` returns a new state.  So
    ``probs()`` computes the distribution on its first call and returns the
    same read-only array on every later one, and so does ``cdf()``.
    """

    log_w: np.ndarray
    eta: float
    cum_losses: np.ndarray
    _probs = None  # not a field: probs() sets it on the instance
    _cdf = None  # nor is this: cdf() sets it

    def __post_init__(self) -> None:
        self.log_w.setflags(write=False)
        self.cum_losses.setflags(write=False)

    @property
    def n_experts(self) -> int:
        return int(self.log_w.shape[0])

    def probs(self) -> np.ndarray:
        probs = self._probs
        if probs is None:
            w = np.exp(self.log_w - self.log_w.max())
            probs = w / w.sum()
            probs.setflags(write=False)
            object.__setattr__(self, "_probs", probs)
        return probs

    def cdf(self) -> np.ndarray:
        """The cumulative sum of ``probs()`` divided by its last entry, so it
        ends at exactly 1.0."""
        cdf = self._cdf
        if cdf is None:
            cdf = self.probs().cumsum()
            cdf /= cdf[-1]
            cdf.setflags(write=False)
            object.__setattr__(self, "_cdf", cdf)
        return cdf


def _default_eta(n_experts: int, T: int) -> float:
    """sqrt(8 ln N / T), or 0 for a single expert."""
    return math.sqrt(8.0 * math.log(n_experts) / T) if n_experts > 1 else 0.0


def make_hedge(n_experts: int, T: int | None = None, eta: float | None = None) -> HedgeState:
    """Fresh uniform Hedge state; eta defaults to sqrt(8 ln N / T)."""
    if n_experts < 1:
        raise ValidationError(f"need at least one expert, got {n_experts}")
    if eta is None:
        if T is None or T < 1:
            raise ValidationError("provide T >= 1 to derive eta, or pass eta explicitly")
        eta = _default_eta(n_experts, T)
    if not eta >= 0.0:
        raise ValidationError(f"eta must be >= 0, got {eta!r}")
    return HedgeState(
        log_w=np.zeros(n_experts), eta=float(eta), cum_losses=np.zeros(n_experts)
    )


def hedge_step(state: HedgeState, losses: np.ndarray) -> tuple[np.ndarray, HedgeState]:
    """One Hedge round: return the pre-update distribution (the state's read-only
    ``probs()``) and the new state."""
    losses = np.asarray(losses, dtype=float)
    if losses.shape != (state.n_experts,):
        raise ValidationError(
            f"losses must have shape ({state.n_experts},), got {losses.shape}"
        )
    if not (losses.min(initial=0.0) >= 0.0 and losses.max(initial=0.0) <= 1.0):
        raise ValidationError("losses must lie in [0, 1]")
    probs = state.probs()
    new_state = HedgeState(
        log_w=state.log_w - state.eta * losses,
        eta=state.eta,
        cum_losses=state.cum_losses + losses,
    )
    return probs, new_state


def hedge_expected_regret(loss_table: np.ndarray, eta: float | None = None) -> float:
    """Expected-loss regret of Hedge over a full (T, N) loss table; the oracle for
    the sqrt(T ln N / 2) regret bound of ``hedge_step`` (ln N / eta + eta T / 8 at a given eta)."""
    loss_table = np.asarray(loss_table, dtype=float)
    if loss_table.ndim != 2:
        raise ValidationError(f"loss table must be 2-d, got shape {loss_table.shape}")
    T, N = loss_table.shape
    state = make_hedge(N, T=T, eta=eta)
    expected = 0.0
    for t in range(T):
        probs, state = hedge_step(state, loss_table[t])
        expected += float(probs @ loss_table[t])
    best = float(state.cum_losses.min())
    return expected - best


def best_in_hindsight(
    cls: ThresholdUnionClass, xs: "np.ndarray | list[int]", ys: "np.ndarray | list[int]"
) -> tuple[Hypothesis, int]:
    """Exact loss minimizer over the whole class via per-block prefix scans.

    Blocks are disjoint, so the optimum decomposes: within block i, the
    mistakes of threshold g are #(y=1 and x < g) plus #(y=0 and x >= g), both
    read off sorted per-label point lists.  Ties resolve to the smallest
    threshold.
    """
    xs = np.asarray(xs, dtype=int)
    ys = np.asarray(ys, dtype=int)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size == 0:
        raise ValidationError("transcript must be two equal-length nonempty sequences")
    if xs.min() < 1 or xs.max() > cls.m:
        raise ValidationError(f"points must lie in 1..{cls.m}")
    if not np.isin(ys, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")
    gamma = []
    total = 0
    blocks = (xs - 1) // cls.block_size
    for i in range(cls.d):
        lo, hi = cls.block_range(i)
        in_block = blocks == i
        x1 = np.sort(xs[in_block & (ys == 1)])
        x0 = np.sort(xs[in_block & (ys == 0)])
        gam = np.arange(lo, hi + 1)
        miss1 = np.searchsorted(x1, gam, side="left")  # y=1 points below gamma
        miss0 = x0.size - np.searchsorted(x0, gam, side="left")  # y=0 points at/above
        mistakes = miss1 + miss0
        j = int(np.argmin(mistakes))  # argmin takes the first, smallest gamma
        gamma.append(int(gam[j]))
        total += int(mistakes[j])
    return Hypothesis(cls, tuple(gamma)), total


def best_in_hindsight_brute(
    cls: ThresholdUnionClass, xs: "np.ndarray | list[int]", ys: "np.ndarray | list[int]"
) -> tuple[Hypothesis, int]:
    """Loss minimizer by full enumeration; desk-scale oracle for the fast scan."""
    xs = np.asarray(xs, dtype=int)
    ys = np.asarray(ys, dtype=int)
    best_h = None
    best_loss = None
    for h in cls.enumerate_hypotheses():
        loss = int((h.predict_many(xs) != ys).sum())
        if best_loss is None or loss < best_loss:
            best_h, best_loss = h, loss
    return best_h, best_loss


def net_error(
    cls: ThresholdUnionClass, cover: CoverGrid, points: "np.ndarray | list[int]"
) -> int:
    """sup over class of min over cover of the count of disagreement points.

    Two thresholds g, g' disagree exactly on the interval between them, so the
    per-block count is |cum(g) - cum(g')| with cum the number of block points
    strictly below a threshold.  The cover is a full product grid, so the
    sup-min decomposes into a per-block max-min and sums across blocks.
    """
    points = np.asarray(points, dtype=int)
    if points.size == 0:
        return 0
    if points.min() < 1 or points.max() > cls.m:
        raise ValidationError(f"points must lie in 1..{cls.m}")
    if cover.cls != cls:
        raise ValidationError("cover was built for a different class")
    total = 0
    blocks = (points - 1) // cls.block_size
    for i in range(cls.d):
        lo, hi = cls.block_range(i)
        pts = np.sort(points[blocks == i])
        gam = np.arange(lo, hi + 1)
        grid = np.asarray(cover.block_grids[i], dtype=int)
        cum_gam = np.searchsorted(pts, gam, side="left")
        cum_grid = np.searchsorted(pts, grid, side="left")
        per_pair = np.abs(cum_gam[:, None] - cum_grid[None, :])
        total += int(per_pair.min(axis=1).max())
    return total


def net_error_brute(
    cls: ThresholdUnionClass, cover: CoverGrid, points: "np.ndarray | list[int]"
) -> int:
    """Net error by enumerating every (class, cover) hypothesis pair."""
    points = np.asarray(points, dtype=int)
    if points.size == 0:
        return 0
    cover_preds = np.stack([h.predict_many(points) for h in cover.hypotheses])
    worst = 0
    for h in cls.enumerate_hypotheses():
        preds = h.predict_many(points)
        disagreements = (cover_preds != preds[None, :]).sum(axis=1)
        worst = max(worst, int(disagreements.min()))
    return worst


class BlockMistakeTracker:
    """Incremental best-in-hindsight over the full class, one round at a time.

    Keeps the per-block mistake vector over all thresholds; an update touches
    only the affected block, so querying the running optimum is O(d) and an
    update is O(m/d).
    """

    def __init__(self, cls: ThresholdUnionClass) -> None:
        self.cls = cls
        self._mistakes = [np.zeros(cls.block_size, dtype=int) for _ in range(cls.d)]
        self._block_min = [0] * cls.d

    def update(self, x: int, y: int) -> None:
        i = self.cls.block_of(x)
        offset = x - 1 - i * self.cls.block_size
        if y == 1:
            # Thresholds strictly above x predict 0 there: mistake.
            self._mistakes[i][offset + 1 :] += 1
        else:
            # Thresholds at or below x predict 1 there: mistake.
            self._mistakes[i][: offset + 1] += 1
        self._block_min[i] = int(self._mistakes[i].min())

    def best(self) -> int:
        return sum(self._block_min)


@dataclass(frozen=True)
class SmoothLabelAdversary:
    """Labeled-example source: ``rule(gen)`` draws the round's (x, y) and reads
    nothing from the game; an adaptive rule is an object that keeps its own
    state (``_MistakeTreeRule``)."""

    sigma: float
    m: int
    rule: Callable[[np.random.Generator], tuple[int, int]]
    name: str = "custom"

    def play(self, gen: np.random.Generator) -> tuple[int, int]:
        return self.rule(gen)


def _canonical_target(cls: ThresholdUnionClass) -> Hypothesis:
    gamma = tuple(
        cls.block_range(i)[0] + cls.block_size // 2 for i in range(cls.d)
    )
    return Hypothesis(cls, gamma)


def stationary_smooth_adversary(
    cls: ThresholdUnionClass,
    flip: float = 0.25,
    target: Hypothesis | None = None,
) -> SmoothLabelAdversary:
    """Uniform points on [m]; labels from a fixed hypothesis, flipped with prob flip."""
    if not (0.0 <= flip <= 0.5):
        raise ValidationError(f"flip probability must lie in [0, 0.5], got {flip!r}")
    gamma = (_canonical_target(cls) if target is None else target).gamma
    block_size = cls.block_size

    def rule(gen: np.random.Generator) -> tuple[int, int]:
        x = int(gen.integers(1, cls.m + 1))
        y = int(x >= gamma[(x - 1) // block_size])
        if flip > 0.0 and gen.random() < flip:
            y = 1 - y
        return x, y

    return SmoothLabelAdversary(
        sigma=cls.sigma, m=cls.m, rule=rule, name="stationary-smooth"
    )


def constant_label_adversary(
    cls: ThresholdUnionClass, target: Hypothesis | None = None
) -> SmoothLabelAdversary:
    """Realizable source: uniform points, labels exactly from a class hypothesis; the
    stationary source at flip 0, which draws no coin, under its own name."""
    return replace(stationary_smooth_adversary(cls, 0.0, target), name="realizable")


class _MistakeTreeRule:
    """Binary-search rule descending one shattered tree per block.

    Blocks are visited round-robin.  The rule plays the midpoint cell of the
    active interval in the current block and labels it by a fair coin; label
    1 keeps the lower half of candidate thresholds, label 0 the upper half.
    Once an interval is a single cell the rule parks there and keeps tossing
    coins.  Point masses on [m] are sigma-smooth because each integer cell
    has width sigma = 1/m.  One rule drives one game; build a fresh one per
    trial.
    """

    def __init__(self, cls: ThresholdUnionClass) -> None:
        self.active = [cls.block_range(i) for i in range(cls.d)]
        self.cursor = 0
        self.shrink_counts = [0] * cls.d

    def __call__(self, gen: np.random.Generator) -> tuple[int, int]:
        i = self.cursor
        self.cursor = (i + 1) % len(self.active)
        lo, hi = self.active[i]
        mid = (lo + hi) // 2
        y = int(gen.integers(0, 2))
        if lo < hi:
            self.active[i] = (lo, mid) if y == 1 else (mid + 1, hi)
            self.shrink_counts[i] += 1
        return mid, y


def mistake_tree_adversary(cls: ThresholdUnionClass) -> SmoothLabelAdversary:
    """Fresh single-game binary-search adversary."""
    return SmoothLabelAdversary(
        sigma=cls.sigma, m=cls.m, rule=_MistakeTreeRule(cls), name="mistake-tree"
    )


@dataclass(frozen=True, eq=False)
class RegretLedger:
    """Complete game record with the exact regret identity.

    regret equals cum_losses[-1] - best_loss by construction, with best_loss
    the exact class optimum on the realized transcript; regret_curve holds the
    same identity per prefix.
    """

    xs: np.ndarray
    ys: np.ndarray
    predictions: np.ndarray
    losses: np.ndarray
    cum_losses: np.ndarray
    bih_curve: np.ndarray
    regret_curve: np.ndarray
    best_hypothesis: Hypothesis
    best_loss: int
    regret: int
    config: dict

    @property
    def T(self) -> int:
        return int(self.xs.shape[0])

    @property
    def cum_loss(self) -> int:
        return int(self.cum_losses[-1])

    def to_csv(self) -> str:
        columns = (
            self.xs, self.ys, self.predictions, self.losses, self.cum_losses, self.regret_curve
        )
        rows = zip(range(1, self.T + 1), *(c.tolist() for c in columns))
        return "t,x,y,prediction,loss,cum_loss,regret_so_far\n" + "".join(
            ["%d,%d,%d,%d,%d,%d,%d\n" % row for row in rows]
        )

    def config_json(self) -> str:
        return json.dumps(self.config, sort_keys=True)


_BELOW_ONE = math.nextafter(1.0, 0.0)


def _inverse_cdf(cdf: np.ndarray, u: float) -> tuple[int, float]:
    """The cell of a ``HedgeState.cdf()`` that the uniform ``u`` in [0, 1) falls
    in, and ``u`` rescaled to a uniform draw in [0, 1) within that cell.

    The cdf ends at exactly 1.0, so the cell is in range and has positive width.
    """
    i = int(cdf.searchsorted(u, side="right"))
    lo = float(cdf[i - 1]) if i else 0.0
    # A u one ulp below the cell's top can round to 1.0 here (u - lo and
    # cdf[i] - lo round to the same double), which the next block cannot take.
    return i, min((u - lo) / (float(cdf[i]) - lo), _BELOW_ONE)


def _hedge_pick(states: list[HedgeState], block: int, losses: np.ndarray, gen):
    """Sample a cover hypothesis from the Hedge weights before this round's update.

    The weights are the product of the per-block weights, so the one uniform
    draw that ``gen.choice(N, p=probs)`` would take is mapped through each
    block's inverse CDF in turn, block 0 first, down to the current block.
    Each CDF is its state's cached ``cdf()``: an earlier block's state stays
    the same until that block's next step, so its CDF is computed once.
    """
    _, state = hedge_step(states[block], losses)
    u = gen.random()
    for earlier in states[:block]:
        _, u = _inverse_cdf(earlier.cdf(), u)
    return _inverse_cdf(states[block].cdf(), u)[0], state


def _ftl_pick(states: list[HedgeState], block: int, losses: np.ndarray, gen):
    """Follow the hypothesis with the fewest mistakes so far (ties to the lowest
    index).  Cumulative losses add across blocks, so the lowest flat argmin is
    the first argmin within each block."""
    j = int(np.argmin(states[block].cum_losses))
    _, state = hedge_step(states[block], losses)
    return j, state


# learner -> pick(per-block states, current block, its grid's losses, gen)
#            -> (index in the current block's grid, that block's updated state)
LEARNERS = {"hedge-on-cover": _hedge_pick, "ftl-on-cover": _ftl_pick}


def _loss_steps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only arrays that an n-threshold grid's loss rows are windows of,
    by label: ``[1]*n + [0]*n`` for y = 0 and ``[0]*n + [1]*n`` for y = 1.

    At a point x the grid's first c = bisect_right(grid, x) thresholds predict
    1 and the rest 0, so the round's 0/1 losses are ``steps[y][n - c : 2n - c]``.
    """
    down = np.zeros(2 * n)
    down[:n] = 1.0
    up = down[::-1].copy()
    down.setflags(write=False)
    up.setflags(write=False)
    return down, up


def run_learning_game(
    learner: str,
    adv: SmoothLabelAdversary,
    cover: CoverGrid,
    T: int,
    rng: RngStream,
) -> RegretLedger:
    """Play T rounds of online prediction over the cover.

    The learner sees x_t, commits a prediction, then the label is revealed and
    every cover hypothesis is charged its 0/1 loss.  ``learner`` names the
    rule in ``LEARNERS`` that picks the hypothesis each round:
    "hedge-on-cover" samples from the current Hedge weights, "ftl-on-cover"
    follows the fewest mistakes so far.  The adversary's ``play(gen)`` sees
    nothing of the game; an adaptive rule keeps its own state.

    A round's loss depends only on the threshold of the block x_t falls in,
    so the learner keeps one Hedge state per block, all with the eta of the
    whole cover, and charges only the current block's grid.  That grid's loss
    row is a read-only window of one of the block's two step arrays (see
    ``_loss_steps``), and the picked threshold j predicts ``int(j < c)``;
    neither takes a pass over the grid.  The ledger's config records the
    stream's seed and stream_id.
    """
    require_stream(rng)
    pick = LEARNERS.get(learner)
    if pick is None:
        raise ValidationError(f"unknown learner {learner!r}; expected one of {tuple(LEARNERS)}")
    if T < 1:
        raise ValidationError(f"T must be >= 1, got {T}")
    cls = cover.cls
    if adv.m != cls.m:
        raise ValidationError(f"adversary domain {adv.m} does not match class m={cls.m}")
    gen = rng.generator()
    N = cover.size
    eta = _default_eta(N, T)
    grids = cover.block_grids
    steps = [_loss_steps(len(g)) for g in grids]
    states = [make_hedge(len(g), eta=eta) for g in grids]
    tracker = BlockMistakeTracker(cls)
    block_size = cls.block_size

    xs = []
    ys = []
    predictions = []
    bih_curve = []

    for _ in range(T):
        x, y = adv.play(gen)
        x = int(x)
        y = int(y)
        if not (1 <= x <= cls.m):
            raise ValidationError(f"adversary played x={x} outside 1..{cls.m}")
        if y not in (0, 1):
            raise ValidationError(f"adversary played label {y}, need 0 or 1")
        block = (x - 1) // block_size
        grid = grids[block]
        n = len(grid)
        c = bisect_right(grid, x)
        j, states[block] = pick(states, block, steps[block][y][n - c : 2 * n - c], gen)
        tracker.update(x, y)
        xs.append(x)
        ys.append(y)
        predictions.append(int(j < c))
        bih_curve.append(tracker.best())

    xs, ys, predictions, bih_curve = (
        np.array(v, dtype=int) for v in (xs, ys, predictions, bih_curve)
    )
    losses = (predictions != ys).astype(int)
    cum_losses = losses.cumsum()
    best_h, best_loss = best_in_hindsight(cls, xs, ys)
    config = {
        "m": cls.m,
        "d": cls.d,
        "sigma": cls.sigma,
        "beta": cover.beta,
        "N": N,
        "eta": eta,
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
        bih_curve=bih_curve,
        regret_curve=cum_losses - bih_curve,
        best_hypothesis=best_h,
        best_loss=best_loss,
        regret=int(cum_losses[-1]) - best_loss,
        config=config,
    )
