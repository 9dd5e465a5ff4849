"""Online vector balancing against smooth adaptive adversaries.

Each round an adversary presents a vector x_t with ||x_t||_2 <= 1 drawn from
a smooth distribution that may depend on the realized prefix; the algorithm
picks a sign eps_t in {-1, +1} and the running sum d_t = d_{t-1} + eps_t x_t
should stay small in infinity norm.

``run_discrepancy`` plays one of three sign rules, each a frozen object
whose ``name`` goes into the run header:

- ``PotentialConfig`` ("potential"): greedy minimization of
  Phi(d) = E_W[cosh(lam * <d, W>)] over a frozen probe law W (half uniform
  ball, half signed basis vectors), with lam = 1/(1000 * ln(k n T)).  The
  probe pool is the (M, n) array of ball draws; the basis half needs none.
- ``SelfBalancingConfig`` ("selfbalancing"): the self-balancing walk,
  eps = +1 with probability 1/2 - <d, x>/(2c) for a threshold
  c = 8*pi*ln(20 k n T / delta), declaring Failure (sign 0) when
  |<d, x>| > c or when ||d||_inf already reached c.
- ``RandomSign`` ("random-sign"): the fair-coin baseline.

Lower-bound opposition comes from ``slab_lowerbound_adversary``: a vector
drawn uniformly from the thin slab {||x||_2 <= 1, |<x, d>| <= tau ||d||_2},
tau = n^-2 T^-2, is nearly orthogonal to the running sum, so either sign
grows ||d||_2^2 by about ||x||^2 and no algorithm can keep the energy below
T/20.  The slab functions take tau as a parameter.  The slab is sampled
exactly by inverting the one-dimensional marginal of a ball coordinate (a
regularized incomplete beta function); a from-scratch rejection sampler is
kept as the distributional oracle.

A potential round whose cosh argument passes ``COSH_ARG_LIMIT`` blows up
(PotentialOverflowError).  ``_phi_pair`` checks this through the row sums it
already takes: every cosh term is >= 1 and a rounded sum of non-negative
terms is >= each of them, so a row total <= 1e300 < cosh(700) proves every
argument of that row in range.  Only a larger total (or a NaN) pays for the
exact max/min test on the arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from smoothlab.domain import RngStream, ValidationError, require_sigma, require_stream
from smoothlab.stats import BoundCheck, one_sided_bound_check

__all__ = [
    "PotentialOverflowError",
    "AdversaryViolationError",
    "PotentialConfig",
    "SelfBalancingConfig",
    "RandomSign",
    "DiscrepancyTrace",
    "VectorAdversary",
    "default_balance_k",
    "default_lambda",
    "default_threshold",
    "build_probe_pool",
    "potential_value",
    "choose_sign_potential",
    "choose_sign_selfbalancing",
    "run_discrepancy",
    "uniform_ball",
    "uniform_ball_batch",
    "uniform_ball_adversary",
    "shell_adversary",
    "adaptive_shell_adversary",
    "slab_draw",
    "slab_draw_rejection",
    "slab_lowerbound_adversary",
    "slab_volume_fraction",
    "IsotropyReport",
    "check_isotropy",
    "tail_probability_check",
    "make_potential_tail_threshold",
    "trace_to_csv",
    "trace_header_json",
]

COSH_ARG_LIMIT = 700.0  # beyond this cosh overflows float64; treated as blow-up
# A row of cosh terms summing to at most this has no argument beyond
# COSH_ARG_LIMIT, since cosh(700) is about 5.07e303 (see ``_phi_pair``).
_ROW_TOTAL_LIMIT = 1e300


class PotentialOverflowError(OverflowError):
    """A cosh argument exceeded the overflow threshold: the potential blew up."""


class AdversaryViolationError(ValidationError):
    """The adversary emitted a vector with ||x||_2 > 1 or a NaN norm."""


def default_balance_k(sigma: float, T: int) -> int:
    """Replica count ceil(100 * ln(T ln T) / sigma) used to size lam and c."""
    require_sigma(sigma)
    if T < 1:
        raise ValidationError(f"T must be >= 1, got {T}")
    Teff = max(T, 2)
    return max(1, math.ceil(100.0 * math.log(Teff * math.log(Teff)) / sigma))


def default_lambda(k: int, n: int, T: int) -> float:
    """Potential scale lam = 1 / (1000 * ln(k n T))."""
    knT = k * n * T
    if knT < 2:
        raise ValidationError(f"k*n*T must be >= 2 to size lambda, got {knT}")
    return 1.0 / (1000.0 * math.log(knT))


def default_threshold(k: int, n: int, T: int, delta: float) -> float:
    """Self-balancing threshold c = 8*pi*ln(20 k n T / delta)."""
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must lie in (0, 1), got {delta!r}")
    return 8.0 * math.pi * math.log(20.0 * k * n * T / delta)


@dataclass(frozen=True)
class PotentialConfig:
    """Potential-rule parameters: scale lam, ball-probe count M, replica count k."""

    name = "potential"
    lam: float
    M: int
    k: int

    def __post_init__(self) -> None:
        if not (self.lam > 0.0):
            raise ValidationError(f"lam must be positive, got {self.lam!r}")
        if self.M < 0:
            raise ValidationError(f"M must be >= 0, got {self.M}")
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")

    @staticmethod
    def default(n: int, T: int, sigma: float, M: int = 1024) -> "PotentialConfig":
        k = default_balance_k(sigma, T)
        return PotentialConfig(lam=default_lambda(k, n, T), M=M, k=k)


@dataclass(frozen=True)
class SelfBalancingConfig:
    """Self-balancing walk parameters: threshold c and failure budget delta."""

    name = "selfbalancing"
    c: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.c > 0.0):
            raise ValidationError(f"c must be positive, got {self.c!r}")
        if not (0.0 < self.delta < 1.0):
            raise ValidationError(f"delta must lie in (0, 1), got {self.delta!r}")

    @staticmethod
    def default(n: int, T: int, sigma: float, delta: float = 0.1) -> "SelfBalancingConfig":
        k = default_balance_k(sigma, T)
        return SelfBalancingConfig(c=default_threshold(k, n, T, delta), delta=delta)


@dataclass(frozen=True)
class RandomSign:
    """The baseline rule: each sign is +1 exactly when gen.random() < 0.5."""

    name = "random-sign"


def _norm(v: np.ndarray) -> float:
    """||v||_2 of a 1-D float vector: the sqrt(v.dot(v)) that np.linalg.norm
    computes for it, bit for bit, without that function's dispatch."""
    return math.sqrt(v.dot(v))


def _shell_draw(n: int, inner: float, gen: np.random.Generator) -> np.ndarray:
    """One draw uniform in the shell {inner <= ||x|| <= 1}; radius^n is uniform on [inner^n, 1]."""
    g = gen.standard_normal(n)
    nrm = _norm(g)
    while nrm == 0.0:
        g = gen.standard_normal(n)
        nrm = _norm(g)
    rho = (inner**n + gen.random() * (1.0 - inner**n)) ** (1.0 / n)
    return (rho / nrm) * g


def uniform_ball(n: int, gen: np.random.Generator) -> np.ndarray:
    """One draw uniform in the unit n-ball (gaussian direction, radius u^(1/n))."""
    return _shell_draw(n, 0.0, gen)


def uniform_ball_batch(n: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """Vectorized i.i.d. uniform draws from the unit n-ball, shape (size, n)."""
    g = gen.standard_normal((size, n))
    nrms = np.linalg.norm(g, axis=1, keepdims=True)
    nrms[nrms == 0.0] = 1.0
    radii = gen.random(size) ** (1.0 / n)
    return g / nrms * radii[:, None]


def build_probe_pool(n: int, M: int, rng: RngStream) -> np.ndarray:
    """Draw the M ball probes once, as an (M, n) array that stays frozen for the
    whole run; the 2n signed basis probes are evaluated in closed form."""
    require_stream(rng)
    return uniform_ball_batch(n, M, rng.generator()) if M > 0 else np.empty((0, n))


class _PhiBuffer(NamedTuple):
    """The (2, n + M) work buffer of ``_phi_pair`` with its views, bound once."""

    buf: np.ndarray
    plus: np.ndarray  # buf[0]
    minus: np.ndarray  # buf[1]
    basis: np.ndarray  # buf[:, :n]
    ball: np.ndarray  # buf[:, n:]
    n: int
    M: int


def _phi_buffer(n: int, M: int) -> _PhiBuffer:
    buf = np.empty((2, n + M))
    return _PhiBuffer(buf, buf[0], buf[1], buf[:, :n], buf[:, n:], n, M)


def _phi_pair(work: _PhiBuffer, S: np.ndarray, X: np.ndarray, lam: float) -> tuple[float, float]:
    """Phi(d + x) and Phi(d - x) in one pass over the buffer ``work``.

    ``S`` is [d, ball @ d] and ``X`` is [x, ball @ x]: the first n entries are
    the basis arguments, the other M the ball-probe projections.  Row 0 of
    the buffer becomes cosh(lam (S + X)) and row 1 cosh(lam (S - X)); each
    row's Phi is half its mean over the basis entries and half over the ball
    entries.  With no ball probes (M = 0) the basis mean carries full weight,
    and with no basis entries (n = 0) it is 1.

    Any argument beyond ``COSH_ARG_LIMIT``, on either row, raises
    PotentialOverflowError.  The check runs after cosh, on the row sums: a
    term with |argument| > 700 is at least cosh(700) ~ 5.07e303 (or inf), and
    a rounded sum of terms >= 1 is at least each term, so such a row's total
    is never <= 1e300.  Only when a row's total is not <= 1e300 (NaN
    included) are the arguments recomputed for the exact max/min test; if
    that passes, the sums already taken stand.  cosh overflows to inf past
    about 710.4, so callers run this under ``np.errstate(over="ignore")``.
    """
    buf, plus, minus, basis, ball, n, M = work
    np.add(S, X, out=plus)
    np.subtract(S, X, out=minus)
    buf *= lam
    np.cosh(buf, out=buf)
    # Row sums divided as Python floats: the same bits as each row's .mean().
    basis_plus = basis_minus = ball_plus = ball_minus = 0.0
    if n:
        basis_plus, basis_minus = np.add.reduce(basis, axis=1).tolist()
    if M:
        ball_plus, ball_minus = np.add.reduce(ball, axis=1).tolist()
    if not (
        basis_plus + ball_plus <= _ROW_TOTAL_LIMIT and basis_minus + ball_minus <= _ROW_TOTAL_LIMIT
    ):
        args = np.concatenate([S + X, S - X]) * lam
        if args.max(initial=0.0) > COSH_ARG_LIMIT or args.min(initial=0.0) < -COSH_ARG_LIMIT:
            raise PotentialOverflowError("a probe argument exceeded the cosh overflow limit")
    phi_plus = phi_minus = 1.0
    if n:
        phi_plus, phi_minus = basis_plus / n, basis_minus / n
    if M:
        phi_plus = 0.5 * phi_plus + 0.5 * (ball_plus / M)
        phi_minus = 0.5 * phi_minus + 0.5 * (ball_minus / M)
    return phi_plus, phi_minus


def _lower_sign(phi_plus: float, phi_minus: float) -> tuple[int, float]:
    """The sign of the lower potential, ties within 1e-12 to +1, and that potential."""
    return (-1, phi_minus) if phi_minus < phi_plus - 1e-12 else (+1, phi_plus)


def _with_projections(v: np.ndarray, ball: np.ndarray) -> np.ndarray:
    """[v, ball @ v], the layout ``_phi_pair`` reads."""
    return np.concatenate([v, ball @ v])


def potential_value(d: np.ndarray, lam: float, ball: np.ndarray) -> float:
    """Phi(d) = mean of cosh(lam <d, W>) under the probe mixture; the single-state
    twin that the ``run_discrepancy`` phis are tested against.

    The probe law is half uniform-ball, half uniform on the 2n signed basis
    vectors; ``ball`` is the (M, n) probe pool, and with no ball probes
    (M = 0) the basis half carries full weight.  cosh is even, so the
    signed-basis average equals the average of cosh(lam d_i) over
    coordinates.  Arguments beyond ``COSH_ARG_LIMIT`` raise
    PotentialOverflowError.
    """
    if not lam >= 0.0:
        raise ValidationError(f"lam must be >= 0, got {lam!r}")
    M, n = ball.shape
    S = _with_projections(_state_d(d, n), ball)
    # With x = 0 both rows of the kernel are Phi(d).
    with np.errstate(over="ignore"):
        return _phi_pair(_phi_buffer(n, M), S, np.zeros_like(S), lam)[0]


def _state_d(state, n: int) -> np.ndarray:
    d = np.asarray(state, dtype=float)
    if d.shape != (n,):
        raise ValidationError(f"state d has shape {d.shape}, not ({n},)")
    return d


def _check_input_vector(x: np.ndarray, n: int, t: int = 0) -> np.ndarray:
    """x as a float array, checked to have shape (n,) and ||x||_2 <= 1; a
    nonzero ``t`` names the round in the error."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        problem = f"shape {x.shape}, not ({n},)"
    else:
        nrm = _norm(x)
        if nrm <= 1.0 + 1e-9:
            return x
        problem = f"norm {nrm!r}, not <= 1"
    raise AdversaryViolationError((f"round {t}: " if t else "") + f"input vector has {problem}")


def choose_sign_potential(state, x: np.ndarray, cfg: PotentialConfig, ball: np.ndarray) -> int:
    """Greedy sign minimizing the potential over the (M, n) probe pool ``ball``,
    ties within 1e-12 to +1; the single-step twin of the ``run_discrepancy``
    loop, tested sign for sign against it."""
    M, n = ball.shape
    if cfg.M != M:
        raise ValidationError(f"config has M={cfg.M} but the probe pool has {M} ball probes")
    S = _with_projections(_state_d(state, n), ball)
    X = _with_projections(_check_input_vector(x, n), ball)
    with np.errstate(over="ignore"):
        return _lower_sign(*_phi_pair(_phi_buffer(n, M), S, X, cfg.lam))[0]


def choose_sign_selfbalancing(
    ip: float, d_inf: float, cfg: SelfBalancingConfig, gen: np.random.Generator
) -> int:
    """Self-balancing sign from ip = <d, x> and d_inf = ||d||_inf: +1, -1, or 0
    for Failure.

    Failure is declared, with no draw, when the walk already escaped
    (||d||_inf >= c) or the inner product is out of range (|<d, x>| > c);
    otherwise eps = +1 with probability 1/2 - <d, x>/(2c).
    """
    if d_inf >= cfg.c or abs(ip) > cfg.c:
        return 0
    return +1 if gen.random() < 0.5 - ip / (2.0 * cfg.c) else -1


@dataclass(frozen=True)
class VectorAdversary:
    """Adaptive vector source: ``next_fn(d, t, gen)`` emits a unit-ball vector
    given the running sum d_{t-1} and the 1-based round t."""

    n: int
    sigma: float
    next_fn: Callable[[np.ndarray, int, np.random.Generator], np.ndarray]
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n!r}")
        require_sigma(self.sigma)

    def next_vector(self, d: np.ndarray, t: int, gen: np.random.Generator) -> np.ndarray:
        return self.next_fn(d, t, gen)


def uniform_ball_adversary(n: int) -> VectorAdversary:
    """Stationary uniform draws from the unit ball (smoothness 1)."""
    return VectorAdversary(
        n=n,
        sigma=1.0,
        next_fn=lambda d, t, gen: uniform_ball(n, gen),
        name="uniform-ball",
    )


def _max_inner_radius(n: int, sigma: float) -> float:
    """(1-sigma)^(1/n), the largest inner radius that keeps a shell draw sigma-smooth."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n!r}")
    return (1.0 - sigma) ** (1.0 / n) if sigma < 1.0 else 0.0


def shell_adversary(n: int, sigma: float, inner: float | None = None) -> VectorAdversary:
    """Uniform draws from the shell {inner <= ||x|| <= 1}.

    The shell occupies a 1 - inner^n fraction of the ball, so the draw is
    sigma-smooth relative to the ball exactly when inner <= (1-sigma)^(1/n);
    that largest admissible radius is the default.
    """
    r_max = _max_inner_radius(n, sigma)
    if inner is None:
        inner = r_max
    if inner > r_max + 1e-12:
        raise ValidationError(
            f"inner radius {inner!r} exceeds the smoothness limit {r_max!r} for sigma={sigma}"
        )
    if not (0.0 <= inner < 1.0):
        raise ValidationError(f"inner radius must lie in [0, 1), got {inner!r}")
    return VectorAdversary(
        n=n,
        sigma=sigma,
        next_fn=lambda d, t, gen: _shell_draw(n, inner, gen),
        name="shell",
    )


def adaptive_shell_adversary(n: int, sigma: float) -> VectorAdversary:
    """Shell draws whose inner radius is a deterministic function of the state.

    Round t uses inner radius r_t = r_max * frac(golden * t + ||d||_2^2),
    with r_max = (1-sigma)^(1/n), so every round stays sigma-smooth and
    isotropic while the support chases the algorithm's position.
    """
    r_max = _max_inner_radius(n, sigma)
    golden = (math.sqrt(5.0) - 1.0) / 2.0

    def next_fn(d, t, gen):
        u = (golden * t + float(d @ d)) % 1.0
        return _shell_draw(n, r_max * u, gen)

    return VectorAdversary(n=n, sigma=sigma, next_fn=next_fn, name="adaptive-shell")


def slab_draw(d: np.ndarray, tau: float, gen: np.random.Generator) -> np.ndarray:
    """One exact draw from the slab {||x|| <= 1, |<x, dhat>| <= tau} in R^n, n = d.size.

    With d = 0 (or a slab wider than the ball) this is a plain uniform ball
    draw.  Otherwise the coordinate s along dhat has density proportional to
    (1 - s^2)^((n-1)/2) restricted to |s| <= tau; its CDF is a regularized
    incomplete beta function in s^2, inverted with betaincinv.  The
    cross-section at s is a uniform (n-1)-ball of radius sqrt(1 - s^2).
    """
    d = np.asarray(d, dtype=float)
    n = d.size
    nrm = _norm(d)
    if nrm == 0.0 or tau >= 1.0:
        return uniform_ball(n, gen)
    if n == 1:
        return np.array([gen.uniform(-tau, tau)])
    from scipy.special import betainc, betaincinv

    dhat = d / nrm
    a, b = 0.5, (n + 1) / 2.0
    mass = float(betainc(a, b, tau * tau))
    u = gen.uniform(-1.0, 1.0)
    g = u * mass
    s = math.copysign(math.sqrt(float(betaincinv(a, b, abs(g)))), g)
    # Uniform direction orthogonal to dhat.
    w = gen.standard_normal(n)
    w -= (w @ dhat) * dhat
    wn = _norm(w)
    while wn < 1e-12:
        w = gen.standard_normal(n)
        w -= (w @ dhat) * dhat
        wn = _norm(w)
    w /= wn
    radius = math.sqrt(max(0.0, 1.0 - s * s)) * gen.random() ** (1.0 / (n - 1))
    return s * dhat + radius * w


def slab_draw_rejection(
    d: np.ndarray,
    tau: float,
    gen: np.random.Generator,
    max_tries: int = 10_000_000,
) -> tuple[np.ndarray, int]:
    """Rejection oracle for ``slab_draw``: resample the ball until inside.

    Returns (vector, number of proposals).  Kept as the independent check of
    the exact sampler; expected proposals scale with 1/tau.
    """
    d = np.asarray(d, dtype=float)
    n = d.size
    nrm = _norm(d)
    if nrm == 0.0 or tau >= 1.0:
        return uniform_ball(n, gen), 1
    dhat = d / nrm
    for tries in range(1, max_tries + 1):
        v = uniform_ball(n, gen)
        if abs(float(v @ dhat)) <= tau:
            return v, tries
    raise RuntimeError(f"slab rejection sampler exhausted {max_tries} proposals")


def slab_lowerbound_adversary(n: int, T: int) -> VectorAdversary:
    """The thin-slab opponent; declared smoothness is its volume fraction bound."""
    if n < 1 or T < 1:
        raise ValidationError(f"need n >= 1 and T >= 1, got n={n}, T={T}")
    tau = 1.0 / (n * n * T * T)
    # Not tau / 20.0: that differs from this in the last bit for some (n, T).
    sigma = 1.0 / (20.0 * n * n * T * T)
    return VectorAdversary(
        n=n,
        sigma=sigma,
        next_fn=lambda d, t, gen: slab_draw(d, tau, gen),
        name="slab-lowerbound",
    )


def slab_volume_fraction(n: int, tau: float, n_samples: int, gen: np.random.Generator) -> float:
    """Empirical fraction of uniform n-ball draws inside the slab of width tau: checks
    the slab adversary's declared sigma against its real volume fraction.

    Uses a fixed nonzero direction; by rotational symmetry of the ball the
    rate does not depend on it.
    """
    pts = uniform_ball_batch(n, n_samples, gen)
    return float(np.mean(np.abs(pts[:, 0]) <= tau))


@dataclass(frozen=True, eq=False)
class DiscrepancyTrace:
    """Complete record of one balancing run."""

    n: int
    T: int
    signs: np.ndarray  # length t_done
    d_final: np.ndarray
    inf_norms: np.ndarray  # ||d_t||_inf per completed round
    two_norms: np.ndarray
    ips: np.ndarray  # <d_{t-1}, x_t> per round
    phis: np.ndarray | None  # length t_done + 1 with phis[0] = Phi(0) = 1
    failed: bool
    failed_round: int  # 1-based round of Failure, -1 if none
    phi_cross_round: int  # first round with Phi > T^6, -1 if none
    blown_up: bool
    X: np.ndarray  # (t_done, n), the vectors of the completed rounds
    header: dict

    @property
    def t_done(self) -> int:
        return int(self.signs.shape[0])

    @property
    def max_inf(self) -> float:
        return float(self.inf_norms.max()) if self.t_done else 0.0

    @property
    def final_two_norm_sq(self) -> float:
        return float(self.d_final @ self.d_final)


def run_discrepancy(
    rule: PotentialConfig | SelfBalancingConfig | RandomSign,
    adv: VectorAdversary,
    T: int,
    rng: RngStream,
) -> DiscrepancyTrace:
    """Run one balancing game for T rounds under the sign rule ``rule``.

    ``rule`` is a PotentialConfig or SelfBalancingConfig (``.default(n, T,
    sigma)`` sizes either from the adversary's smoothness) or RandomSign();
    the header records ``rule.name`` as "algorithm".  The potential rule draws
    its probe pool once at the start, from ``rng.substream(1)``, and records
    that stream in the header as ["stream", seed, stream_id].
    """
    require_stream(rng)
    if T < 1:
        raise ValidationError(f"T must be >= 1, got {T}")
    if not isinstance(rule, (PotentialConfig, SelfBalancingConfig, RandomSign)):
        raise ValidationError(f"unknown sign rule {rule!r}")
    potential = isinstance(rule, PotentialConfig)
    selfbalancing = isinstance(rule, SelfBalancingConfig)
    n = adv.n
    header: dict = {
        "algorithm": rule.name,
        "n": n,
        "T": T,
        "adversary": adv.name,
        "adversary_sigma": adv.sigma,
        "seed": rng.seed,
        "stream_id": rng.stream_id,
    }
    gen = rng.generator()

    if potential:
        pool_stream = rng.substream(1)
        ball = build_probe_pool(n, rule.M, pool_stream)
        M = ball.shape[0]
        lam = rule.lam
        # S = [d, ball @ d] is kept incrementally: a fresh matvec of
        # ball @ (d +- x) is not bitwise equal and could flip near-ties.
        S = np.zeros(n + M)
        Xp = np.empty(n + M)  # [x, ball @ x]
        # Views bound once per trial, not once per round.
        Xp_basis, Xp_ball = Xp[:n], Xp[n:]
        work = _phi_buffer(n, M)
        pool = ["stream", pool_stream.seed, pool_stream.stream_id]
        header.update({"lam": rule.lam, "M": M, "k": rule.k, "pool": pool})
    elif selfbalancing:
        header.update({"c": rule.c, "delta": rule.delta})

    phi_limit = float(T) ** 6
    d = np.zeros(n)
    signs, inf_norms, two_norms, ips, X = [], [], [], [], []
    phis = [1.0] if potential else None  # phis[0] = Phi(0)

    failed_round = -1
    phi_cross_round = -1
    blown_up = False
    d_inf = 0.0  # ||d_{t-1}||_inf, as appended to inf_norms
    next_vector = adv.next_vector

    # cosh overflows to inf past about 710.4; _phi_pair checks the row sums
    # for that, so numpy's overflow warning is silenced once for the trial.
    with np.errstate(over="ignore"):
        for t in range(1, T + 1):
            x = _check_input_vector(next_vector(d, t, gen), n, t)
            ip = float(d @ x)

            if potential:
                Xp_basis[:] = x
                np.matmul(ball, x, out=Xp_ball)
                try:
                    sign, phi_t = _lower_sign(*_phi_pair(work, S, Xp, lam))
                except PotentialOverflowError:
                    blown_up = True
                    phi_cross_round = t if phi_cross_round == -1 else phi_cross_round
                    break
                phis.append(phi_t)
                if phi_t > phi_limit and phi_cross_round == -1:
                    phi_cross_round = t
                if sign > 0:
                    S += Xp
                else:
                    S -= Xp
            elif selfbalancing:
                sign = choose_sign_selfbalancing(ip, d_inf, rule, gen)
                if not sign:
                    failed_round = t
                    ips.append(ip)  # the failing round's <d, x> is kept
                    break
            else:
                sign = +1 if gen.random() < 0.5 else -1

            # d stays a fresh array each round: the adversary may keep the d it saw.
            # The potential's S[:n] got the same add or subtract of x, so it stays d bit for bit.
            d = d + x if sign > 0 else d - x
            signs.append(sign)
            ips.append(ip)
            # Every x passed the norm check, so d is finite: the same bits as np.abs(d).max().
            d_inf = max(map(abs, d.tolist()))
            inf_norms.append(d_inf)
            two_norms.append(_norm(d))
            X.append(x.copy())  # the adversary may reuse the array it returned

    if potential:
        phis = np.array(phis)
        header["mean_phi_increment"] = float(np.diff(phis).mean()) if signs else 0.0

    return DiscrepancyTrace(
        n=n,
        T=T,
        signs=np.array(signs, dtype=np.int8),
        d_final=d,
        inf_norms=np.array(inf_norms),
        two_norms=np.array(two_norms),
        ips=np.array(ips),
        phis=phis,
        failed=failed_round != -1,
        failed_round=failed_round,
        phi_cross_round=phi_cross_round,
        blown_up=blown_up,
        X=np.reshape(X, (len(signs), n)),
        header=header,
    )


@dataclass(frozen=True, eq=False)
class IsotropyReport:
    """Empirical covariance of adversary draws at a fixed state (``check_isotropy``)."""

    covariance: np.ndarray
    c_hat: float  # trace / n
    deviation: float  # operator norm of covariance - c_hat * I
    n_samples: int


def check_isotropy(
    adv: VectorAdversary,
    n_samples: int,
    gen: np.random.Generator,
    d: np.ndarray | None = None,
    t: int = 1,
) -> IsotropyReport:
    """Estimate how far the adversary's draw law is from isotropic at a state:
    checks the isotropy premise of the shell adversaries.

    Draws n_samples vectors at the fixed (d, t) state, forms the empirical
    second-moment matrix C, and reports the operator norm of C - (tr C / n) I.
    Isotropic sources (balls, shells) give values near 0; the slab's
    flattened direction shows up as a deviation of order tr C / n.
    """
    if n_samples < 1000:
        raise ValidationError(f"need at least 1000 samples, got {n_samples}")
    d0 = np.zeros(adv.n) if d is None else np.asarray(d, dtype=float)
    cov = np.zeros((adv.n, adv.n))
    for _ in range(n_samples):
        x = adv.next_vector(d0, t, gen)
        cov += np.outer(x, x)
    cov /= n_samples
    c_hat = float(np.trace(cov) / adv.n)
    dev = float(np.abs(np.linalg.eigvalsh(cov - c_hat * np.eye(adv.n))).max())
    return IsotropyReport(covariance=cov, c_hat=c_hat, deviation=dev, n_samples=n_samples)


def tail_probability_check(
    traces: list[DiscrepancyTrace],
    threshold,
    bound: float,
    z: float = 3.0,
    min_runs: int = 1000,
) -> BoundCheck:
    """Check how often |<d_{t-1}, x_t>| exceeded a threshold across runs: the
    empirical side of the potential rule's tail lemma.

    ``threshold`` is a constant or a callable (trace, t) -> value evaluated
    with 1-based t; the empirical exceedance frequency over all rounds of all
    traces goes to ``one_sided_bound_check`` against ``bound`` at z binomial
    standard errors, which refuses traces that played no round.
    """
    if len(traces) < min_runs:
        raise ValidationError(f"need at least {min_runs} runs, got {len(traces)}")
    events = 0
    rounds = 0
    for tr in traces:
        for t in range(1, tr.ips.shape[0] + 1):
            theta = threshold(tr, t) if callable(threshold) else float(threshold)
            events += int(abs(float(tr.ips[t - 1])) > theta)
            rounds += 1
    return one_sided_bound_check(events, rounds, bound, z=z)


def make_potential_tail_threshold(cfg: PotentialConfig, delta: float):
    """Round-t threshold 4*ln(4 k Phi_{t-1} / delta) / lam of the potential rule's tail lemma."""

    def threshold(trace: DiscrepancyTrace, t: int) -> float:
        phi_prev = float(trace.phis[t - 1])
        return 4.0 * math.log(4.0 * cfg.k * phi_prev / delta) / cfg.lam

    return threshold


def trace_to_csv(trace: DiscrepancyTrace) -> str:
    """CSV rows t, sign, d_inf_norm, d_2_norm, phi, failed (phi blank unless potential).

    The norm cells are written as numpy 2 prints a float64 scalar's repr,
    ``np.float64(0.41...)``; the phi cell is a plain float repr.
    """
    lines = ["t,sign,d_inf_norm,d_2_norm,phi,failed"]
    phis = map(repr, trace.phis[1:].tolist()) if trace.phis is not None else [""] * trace.t_done
    rows = zip(trace.signs.tolist(), trace.inf_norms.tolist(), trace.two_norms.tolist(), phis)
    for t, (sign, inf_norm, two_norm, phi) in enumerate(rows, 1):
        lines.append(f"{t},{sign},np.float64({inf_norm!r}),np.float64({two_norm!r}),{phi},0")
    if trace.failed:
        lines.append(f"{trace.failed_round},0,,,,1")
    return "\n".join(lines) + "\n"


def trace_header_json(trace: DiscrepancyTrace) -> str:
    """Run header with every resolved parameter (lam, c, pool seed, adversary)."""
    return json.dumps(trace.header, sort_keys=True)
