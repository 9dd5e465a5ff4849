"""Online vector balancing against smooth adaptive adversaries.

Each round an adversary presents a vector x_t with ||x_t||_2 <= 1 drawn from
a smooth distribution that may depend on the realized prefix; the algorithm
picks a sign eps_t in {-1, +1} and the running sum d_t = d_{t-1} + eps_t x_t
should stay small in infinity norm.

``run_discrepancy`` plays one of three sign rules, each a frozen object
whose ``name`` goes into the run header:

- ``PotentialConfig`` ("potential"): greedy minimization of
  Phi(d) = E_W[cosh(lam * <d, W>)] over a frozen probe pool W (half uniform
  ball, half signed basis vectors), with lam = 1/(1000 * ln(k n T)).
- ``SelfBalancingConfig`` ("selfbalancing"): the self-balancing walk,
  eps = +1 with probability 1/2 - <d, x>/(2c) for a threshold
  c = 8*pi*ln(20 k n T / delta), declaring Failure when |<d, x>| > c or when
  ||d||_inf already reached c.
- ``RandomSign`` ("random-sign"): the fair-coin baseline.

Lower-bound opposition comes from ``slab_lowerbound_adversary``: a vector
drawn uniformly from the thin slab {||x||_2 <= 1, |<x, d>| <= n^-2 T^-2
||d||_2} is nearly orthogonal to the running sum, so either sign grows
||d||_2^2 by about ||x||^2 and no algorithm can keep the energy below T/20.
The slab is sampled exactly by inverting the one-dimensional marginal of a
ball coordinate (a regularized incomplete beta function); a from-scratch
rejection sampler is kept as the distributional oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from smoothlab.domain import RngStream, ValidationError, require_stream
from smoothlab.stats import binomial_stderr

__all__ = [
    "PotentialOverflowError",
    "AdversaryViolationError",
    "FAILURE",
    "Failure",
    "PotentialConfig",
    "SelfBalancingConfig",
    "RandomSign",
    "ProbePool",
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
    "slab_adversary_next",
    "slab_adversary_next_rejection",
    "slab_lowerbound_adversary",
    "slab_acceptance_rate",
    "IsotropyReport",
    "check_isotropy",
    "TailReport",
    "tail_probability_check",
    "make_potential_tail_threshold",
    "trace_to_csv",
    "trace_header_json",
]

COSH_ARG_LIMIT = 700.0  # beyond this cosh overflows float64; treated as blow-up


class PotentialOverflowError(OverflowError):
    """A cosh argument exceeded the overflow threshold: the potential blew up."""


class AdversaryViolationError(ValidationError):
    """The adversary emitted a vector with ||x||_2 > 1 or a NaN norm."""


class Failure:
    """First-class Failure outcome of the self-balancing rule (not an exception)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FAILURE"


FAILURE = Failure()


def default_balance_k(sigma: float, T: int) -> int:
    """Replica count ceil(100 * ln(T ln T) / sigma) used to size lam and c."""
    if not (0.0 < sigma <= 1.0):
        raise ValidationError(f"sigma must lie in (0, 1], got {sigma!r}")
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


@dataclass(frozen=True, eq=False)
class ProbePool:
    """Frozen probe pool: the 2n signed basis vectors plus M uniform-ball draws.

    Only the ball probes are stored; the basis half is evaluated in closed
    form.  ``descriptor`` is ("stream", seed, stream_id), the stream the pool
    was drawn from, for the run header.
    """

    n: int
    ball: np.ndarray  # shape (M, n)
    descriptor: tuple

    @property
    def M(self) -> int:
        return int(self.ball.shape[0])


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


def build_probe_pool(n: int, M: int, rng: RngStream) -> ProbePool:
    """Draw the M ball probes once; they stay frozen for the whole run."""
    require_stream(rng)
    ball = uniform_ball_batch(n, M, rng.generator()) if M > 0 else np.empty((0, n))
    return ProbePool(n=n, ball=ball, descriptor=("stream", rng.seed, rng.stream_id))


def _phi_pair(
    buf: np.ndarray, S: np.ndarray, X: np.ndarray, lam: float, n: int
) -> tuple[float, float]:
    """Phi(d + x) and Phi(d - x) in one pass over the (2, n + M) buffer ``buf``.

    ``S`` is [d, ball @ d] and ``X`` is [x, ball @ x]: the first n entries are
    the basis arguments, the other M the ball-probe projections.  Row 0 of
    ``buf`` becomes lam (S + X) and row 1 lam (S - X); each row's Phi is half
    its mean cosh over the basis entries and half over the ball entries.  With
    no ball probes (M = 0) the basis mean carries full weight, and with no
    basis entries (n = 0) it is 1.  Any argument beyond ``COSH_ARG_LIMIT``, on
    either row, raises PotentialOverflowError.
    """
    np.add(S, X, out=buf[0])
    np.subtract(S, X, out=buf[1])
    buf *= lam
    if buf.max(initial=0.0) > COSH_ARG_LIMIT or buf.min(initial=0.0) < -COSH_ARG_LIMIT:
        raise PotentialOverflowError("a probe argument exceeded the cosh overflow limit")
    np.cosh(buf, out=buf)
    # Row sums divided as Python floats: the same bits as each row's .mean().
    phi_plus = phi_minus = 1.0
    if n:
        sum_plus, sum_minus = np.add.reduce(buf[:, :n], axis=1).tolist()
        phi_plus, phi_minus = sum_plus / n, sum_minus / n
    M = buf.shape[1] - n
    if M:
        sum_plus, sum_minus = np.add.reduce(buf[:, n:], axis=1).tolist()
        phi_plus = 0.5 * phi_plus + 0.5 * (sum_plus / M)
        phi_minus = 0.5 * phi_minus + 0.5 * (sum_minus / M)
    return phi_plus, phi_minus


def _lower_sign(phi_plus: float, phi_minus: float) -> tuple[int, float]:
    """The sign of the lower potential, ties within 1e-12 to +1, and that potential."""
    return (-1, phi_minus) if phi_minus < phi_plus - 1e-12 else (+1, phi_plus)


def _with_projections(v: np.ndarray, ball: np.ndarray) -> np.ndarray:
    """[v, ball @ v], the layout ``_phi_pair`` reads."""
    return np.concatenate([v, ball @ v])


def potential_value(d: np.ndarray, lam: float, pool: ProbePool) -> float:
    """Phi(d) = mean of cosh(lam <d, W>) under the probe mixture; the single-state
    twin that the ``run_discrepancy`` phis are tested against.

    The probe law is half uniform-ball, half uniform on the 2n signed basis
    vectors; with no ball probes (M = 0) the basis half carries full weight.
    cosh is even, so the signed-basis average equals the average of
    cosh(lam d_i) over coordinates.  Arguments beyond ``COSH_ARG_LIMIT``
    raise PotentialOverflowError.
    """
    if not lam >= 0.0:
        raise ValidationError(f"lam must be >= 0, got {lam!r}")
    d = np.asarray(d, dtype=float)
    S = _with_projections(d, pool.ball)
    # With x = 0 both rows of the kernel are Phi(d).
    return _phi_pair(np.empty((2, S.size)), S, np.zeros_like(S), lam, d.size)[0]


def _state_d(state) -> np.ndarray:
    return np.asarray(state, dtype=float)


def _check_input_vector(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    nrm = _norm(x)
    if not (nrm <= 1.0 + 1e-9):
        raise AdversaryViolationError(f"input vector has norm {nrm!r}, not <= 1")
    return x


def choose_sign_potential(state, x: np.ndarray, cfg: PotentialConfig, pool: ProbePool) -> int:
    """Greedy sign minimizing the potential, ties within 1e-12 to +1; the single-step
    twin of the ``run_discrepancy`` loop, tested sign for sign against it."""
    d = _state_d(state)
    x = _check_input_vector(x)
    S = _with_projections(d, pool.ball)
    X = _with_projections(x, pool.ball)
    return _lower_sign(*_phi_pair(np.empty((2, S.size)), S, X, cfg.lam, d.size))[0]


def choose_sign_selfbalancing(
    state, x: np.ndarray, cfg: SelfBalancingConfig, gen: np.random.Generator
):
    """Self-balancing sign rule; returns +1, -1, or the FAILURE sentinel.

    Failure is declared when the walk already escaped (||d||_inf >= c) or the
    current inner product is out of range (|<d, x>| > c); otherwise eps = +1
    with probability 1/2 - <d, x>/(2c).
    """
    d = _state_d(state)
    x = _check_input_vector(x)
    if float(np.abs(d).max(initial=0.0)) >= cfg.c:
        return FAILURE
    ip = float(d @ x)
    if abs(ip) > cfg.c:
        return FAILURE
    p_plus = 0.5 - ip / (2.0 * cfg.c)
    return +1 if gen.random() < p_plus else -1


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
        if not (0.0 < self.sigma <= 1.0):
            raise ValidationError(f"sigma must lie in (0, 1], got {self.sigma!r}")

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


def slab_adversary_next(d: np.ndarray, n: int, T: int, gen: np.random.Generator) -> np.ndarray:
    """One exact draw from the slab {||x|| <= 1, |<x, dhat>| <= n^-2 T^-2}.

    With d = 0 (or a slab wider than the ball) this is a plain uniform ball
    draw.  Otherwise the coordinate s along dhat has density proportional to
    (1 - s^2)^((n-1)/2) restricted to |s| <= tau; its CDF is a regularized
    incomplete beta function in s^2, inverted with betaincinv.  The
    cross-section at s is a uniform (n-1)-ball of radius sqrt(1 - s^2).
    """
    d = np.asarray(d, dtype=float)
    nrm = _norm(d)
    tau = 1.0 / (n * n * T * T)
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


def slab_adversary_next_rejection(
    d: np.ndarray,
    n: int,
    T: int,
    gen: np.random.Generator,
    max_tries: int = 10_000_000,
) -> tuple[np.ndarray, int]:
    """Rejection oracle for the slab draw: resample the ball until inside.

    Returns (vector, number of proposals).  Kept as the independent check of
    the exact sampler; expected proposals scale with n^2 T^2.
    """
    d = np.asarray(d, dtype=float)
    nrm = _norm(d)
    tau = 1.0 / (n * n * T * T)
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
    sigma = 1.0 / (20.0 * n * n * T * T)
    return VectorAdversary(
        n=n,
        sigma=sigma,
        next_fn=lambda d, t, gen: slab_adversary_next(d, n, T, gen),
        name="slab-lowerbound",
    )


def slab_acceptance_rate(n: int, T: int, n_samples: int, gen: np.random.Generator) -> float:
    """Empirical fraction of uniform-ball draws landing inside the slab: checks the
    slab adversary's declared sigma against its real volume fraction.

    Uses a fixed nonzero direction; by rotational symmetry of the ball the
    rate does not depend on it.
    """
    tau = 1.0 / (n * n * T * T)
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
    that stream in the header.
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
        pool = build_probe_pool(n, rule.M, rng.substream(1))
        ball = pool.ball
        # S = [d, ball @ d] is kept incrementally: a fresh matvec of
        # ball @ (d +- x) is not bitwise equal and could flip near-ties.
        S = np.zeros(n + pool.M)
        Xp = np.empty(n + pool.M)  # [x, ball @ x]
        buf = np.empty((2, n + pool.M))
        header.update({"lam": rule.lam, "M": pool.M, "k": rule.k, "pool": list(pool.descriptor)})
    elif selfbalancing:
        header.update({"c": rule.c, "delta": rule.delta})

    phi_limit = float(T) ** 6
    d = np.zeros(n)
    signs = np.empty(T, dtype=np.int8)
    inf_norms = np.empty(T)
    two_norms = np.empty(T)
    ips = np.empty(T)
    phis = np.empty(T + 1) if potential else None
    if phis is not None:
        phis[0] = 1.0
    X = np.empty((T, n))

    failed = False
    failed_round = -1
    phi_cross_round = -1
    blown_up = False
    t_done = 0

    for t in range(1, T + 1):
        x = adv.next_vector(d, t, gen)
        x = _check_input_vector(x)
        ips[t - 1] = float(d @ x)

        if potential:
            Xp[:n] = x
            np.matmul(ball, x, out=Xp[n:])
            try:
                sign, phi_t = _lower_sign(*_phi_pair(buf, S, Xp, rule.lam, n))
            except PotentialOverflowError:
                blown_up = True
                phi_cross_round = t if phi_cross_round == -1 else phi_cross_round
                break
            phis[t] = phi_t
            if phi_t > phi_limit and phi_cross_round == -1:
                phi_cross_round = t
            if sign > 0:
                S += Xp
            else:
                S -= Xp
        elif selfbalancing:
            outcome = choose_sign_selfbalancing(d, x, rule, gen)
            if outcome is FAILURE:
                failed = True
                failed_round = t
                break
            sign = int(outcome)
        else:
            sign = +1 if gen.random() < 0.5 else -1

        # d stays a fresh array each round: the adversary may keep the d it saw.
        d = S[:n].copy() if potential else d + sign * x
        signs[t - 1] = sign
        inf_norms[t - 1] = float(np.abs(d).max())
        two_norms[t - 1] = _norm(d)
        X[t - 1] = x
        t_done = t

    if phis is not None:
        header["mean_phi_increment"] = (
            float(np.diff(phis[: t_done + 1]).mean()) if t_done else 0.0
        )

    return DiscrepancyTrace(
        n=n,
        T=T,
        signs=signs[:t_done].copy(),
        d_final=d,
        inf_norms=inf_norms[:t_done].copy(),
        two_norms=two_norms[:t_done].copy(),
        ips=ips[:t_done].copy() if not failed else ips[:failed_round].copy(),
        phis=phis[: t_done + 1].copy() if phis is not None else None,
        failed=failed,
        failed_round=failed_round,
        phi_cross_round=phi_cross_round,
        blown_up=blown_up,
        X=X[:t_done].copy(),
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


@dataclass(frozen=True)
class TailReport:
    """One-sided comparison of an exceedance rate against a bound (``tail_probability_check``)."""

    n_events: int
    n_rounds: int
    rate: float
    bound: float
    stderr: float
    passed: bool


def tail_probability_check(
    traces: list[DiscrepancyTrace],
    threshold,
    bound: float,
    z: float = 3.0,
    min_runs: int = 1000,
) -> TailReport:
    """Check how often |<d_{t-1}, x_t>| exceeded a threshold across runs: the
    empirical side of the potential rule's tail lemma.

    ``threshold`` is a constant or a callable (trace, t) -> value evaluated
    with 1-based t; the empirical exceedance frequency over all rounds of all
    traces is compared one-sided against ``bound`` plus z binomial standard
    errors.
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
    rate = events / rounds if rounds else 0.0
    se = binomial_stderr(bound, rounds) if rounds else 0.0
    return TailReport(
        n_events=events,
        n_rounds=rounds,
        rate=rate,
        bound=bound,
        stderr=se,
        passed=rate <= bound + z * se,
    )


def make_potential_tail_threshold(cfg: PotentialConfig, delta: float):
    """Round-t threshold 4*ln(4 k Phi_{t-1} / delta) / lam of the potential rule's tail lemma."""

    def threshold(trace: DiscrepancyTrace, t: int) -> float:
        phi_prev = float(trace.phis[t - 1])
        return 4.0 * math.log(4.0 * cfg.k * phi_prev / delta) / cfg.lam

    return threshold


def trace_to_csv(trace: DiscrepancyTrace) -> str:
    """CSV rows t, sign, d_inf_norm, d_2_norm, phi, failed (phi blank unless potential)."""
    lines = ["t,sign,d_inf_norm,d_2_norm,phi,failed"]
    for i in range(trace.t_done):
        phi = repr(float(trace.phis[i + 1])) if trace.phis is not None else ""
        lines.append(
            f"{i + 1},{int(trace.signs[i])},{trace.inf_norms[i]!r},"
            f"{trace.two_norms[i]!r},{phi},0"
        )
    if trace.failed:
        lines.append(f"{trace.failed_round},0,,,,1")
    return "\n".join(lines) + "\n"


def trace_header_json(trace: DiscrepancyTrace) -> str:
    """Run header with every resolved parameter (lam, c, pool seed, adversary)."""
    return json.dumps(trace.header, sort_keys=True)
