"""Finite domains, smooth distributions, and reproducible randomness.

A distribution on the finite domain [n] = {1, .., n} is sigma-smooth when no
element carries more than 1/(sigma*n) probability, i.e. its density against
the uniform distribution is bounded by 1/sigma.  Every distribution that is
representable as a mixture of uniform distributions on sets of at least
ceil(sigma*n) elements is sigma-smooth, and ``decompose_smooth`` recovers such
a mixture by greedy peeling.

Randomness is always routed through :class:`RngStream`, a (seed, stream_id)
pair that materializes an independent PCG64 generator, so that multi-trial
experiments are reproducible independently of scheduling.  A function that
records its stream in its output takes the RngStream itself and checks it with
``require_stream``; every other function that draws takes its caller's
``np.random.Generator``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
# numpy loads np.random on first use; load it with the package, since every trial draws.
import numpy.random  # noqa: F401

__all__ = [
    "ValidationError",
    "DecompositionError",
    "FiniteDomain",
    "RngStream",
    "UniformOnSet",
    "SmoothPmf",
    "MixtureOfUniforms",
    "min_support_size",
    "validate_smooth",
    "decompose_smooth",
    "random_smooth_pmf",
    "require_stream",
]


class ValidationError(ValueError):
    """Raised for malformed inputs (NaN, negative mass, bad sigma, bad sets)."""


class DecompositionError(RuntimeError):
    """Raised when a pmf cannot be peeled into uniform components of the required size."""


@dataclass(frozen=True)
class FiniteDomain:
    """The ground set {1, .., n}."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValidationError(f"domain size must be a positive integer, got {self.n!r}")


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Two streams with distinct (seed, stream_id) pairs are statistically
    independent; the same pair always reproduces the same draws.  Trial i of
    an experiment uses stream_id = i, which makes results invariant to how
    trials are scheduled across workers.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not isinstance(value, (int, np.integer)) or value < 0 or value >= 2**64:
                raise ValidationError(f"{name} must be an integer in [0, 2^64), got {value!r}")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))

    def substream(self, substream_id: int) -> "RngStream":
        """Derive a disjoint stream for an internal purpose (e.g. a probe pool)."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id, substream_id))
        # Collapse the longer spawn key into a fresh 64-bit seed so the result
        # is again a plain (seed, 0) stream.
        derived = int(seq.generate_state(1, np.uint64)[0])
        return RngStream(seed=derived, stream_id=0)


def require_stream(rng: RngStream) -> None:
    """Refuse anything but an RngStream, for the functions that record their stream."""
    if not isinstance(rng, RngStream):
        raise ValidationError(f"expected an RngStream, got {type(rng).__name__}")


def min_support_size(sigma: float, n: int) -> int:
    """ceil(sigma*n) with a tolerance guard against float noise like 0.2*5 = 1.0000000000000002."""
    if not (0.0 < sigma <= 1.0):
        raise ValidationError(f"sigma must lie in (0, 1], got {sigma!r}")
    return max(1, math.ceil(sigma * n - 1e-9))


@dataclass(frozen=True)
class UniformOnSet:
    """Uniform distribution on a nonempty subset of the domain."""

    domain: FiniteDomain
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(int(v) for v in self.members)
        object.__setattr__(self, "members", members)
        if len(members) == 0:
            raise ValidationError("uniform set must be nonempty")
        if len(set(members)) != len(members):
            raise ValidationError("uniform set has repeated elements")
        if sorted(members) != list(members):
            raise ValidationError("uniform set members must be sorted")
        if members[0] < 1 or members[-1] > self.domain.n:
            raise ValidationError(f"members out of range 1..{self.domain.n}: {members}")

    @property
    def size(self) -> int:
        return len(self.members)

    @functools.cached_property
    def members_array(self) -> np.ndarray:
        """The members as a read-only int64 array, built once per set."""
        arr = np.array(self.members, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    @functools.cached_property
    def member_mask(self) -> np.ndarray:
        """Read-only bool array of length n+1; ``member_mask[v]`` is True iff v is a member."""
        mask = np.zeros(self.domain.n + 1, dtype=bool)
        mask[self.members_array] = True
        mask.flags.writeable = False
        return mask

    def mass_vector(self) -> np.ndarray:
        """Dense pmf; the oracle for rebuilding a ``decompose_smooth`` component."""
        mass = np.zeros(self.domain.n)
        mass[self.members_array - 1] = 1.0 / len(self.members)
        return mass


@dataclass(frozen=True, eq=False)
class SmoothPmf:
    """A sigma-smooth pmf on [n]: every point mass is at most 1/(sigma*n)."""

    domain: FiniteDomain
    mass: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        mass = np.asarray(self.mass, dtype=float).copy()
        mass.flags.writeable = False
        object.__setattr__(self, "mass", mass)
        if mass.shape != (self.domain.n,):
            raise ValidationError(f"mass must have shape ({self.domain.n},), got {mass.shape}")
        if not (0.0 < self.sigma <= 1.0):
            raise ValidationError(f"sigma must lie in (0, 1], got {self.sigma!r}")
        if not np.all(np.isfinite(mass)):
            raise ValidationError("mass contains NaN or infinity")
        if np.any(mass < 0):
            raise ValidationError("mass contains negative entries")
        if abs(float(mass.sum()) - 1.0) > 1e-12:
            raise ValidationError(f"mass must sum to 1 within 1e-12, got {float(mass.sum())!r}")
        cap = 1.0 / (self.sigma * self.domain.n)
        if float(mass.max()) > cap + 1e-12:
            raise ValidationError(
                f"max mass {float(mass.max())!r} exceeds smoothness cap {cap!r} "
                f"for sigma={self.sigma}"
            )


@dataclass(frozen=True)
class MixtureOfUniforms:
    """Mixture of uniform distributions on sets of size at least ceil(sigma*n)."""

    domain: FiniteDomain
    components: tuple[tuple[float, UniformOnSet], ...]
    sigma: float

    def __post_init__(self) -> None:
        if len(self.components) == 0:
            raise ValidationError("mixture must have at least one component")
        floor = min_support_size(self.sigma, self.domain.n)
        total = 0.0
        for weight, comp in self.components:
            if not (weight > 0.0):
                raise ValidationError(f"component weights must be positive, got {weight!r}")
            if comp.domain != self.domain:
                raise ValidationError("component domain mismatch")
            if comp.size < floor:
                raise ValidationError(
                    f"component set size {comp.size} below floor {floor} for sigma={self.sigma}"
                )
            total += weight
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"component weights must sum to 1 within 1e-12, got {total!r}")

    def mass_vector(self) -> np.ndarray:
        """Dense pmf; the oracle that a ``decompose_smooth`` mixture rebuilds its input."""
        mass = np.zeros(self.domain.n)
        for weight, comp in self.components:
            mass[np.asarray(comp.members) - 1] += weight / comp.size
        return mass


def validate_smooth(mass: Sequence[float] | np.ndarray, sigma: float) -> bool:
    """Check the sigma-smoothness of a pmf given as a plain array.

    Returns False for masses that fail the sum-to-one (tolerance 1e-9) or the
    point-mass cap (tolerance 1e-12) tests.  Structurally invalid input (NaN,
    negative entries, sigma outside (0, 1]) raises ValidationError instead of
    returning False.
    """
    arr = np.asarray(mass, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"pmf must be a nonempty 1-D array, got shape {arr.shape}")
    if not (0.0 < sigma <= 1.0):
        raise ValidationError(f"sigma must lie in (0, 1], got {sigma!r}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("pmf contains NaN or infinity")
    if np.any(arr < 0):
        raise ValidationError("pmf contains negative entries")
    n = arr.size
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        return False
    return float(arr.max()) <= 1.0 / (sigma * n) + 1e-12


def decompose_smooth(pmf: SmoothPmf) -> MixtureOfUniforms:
    """Peel a smooth pmf into a mixture of uniforms on sets of size >= ceil(sigma*n).

    Greedy rule: with s = ceil(sigma*n) and remaining mass m, repeatedly take
    the s heaviest residual coordinates (ties broken by index) and peel the
    largest weight that keeps every residual coordinate at or below m'/s for
    the new remaining mass m'.  That weight is min(s * r_s, m - s * r_{s+1})
    with r_s the smallest residual inside the set and r_{s+1} the largest
    outside it.  Terminates within n^2 + n rounds.

    Raises DecompositionError if the pmf's largest mass exceeds 1/s: such a
    pmf cannot be a mixture of uniforms on sets of s or more elements (each
    mixture caps point masses at 1/s), even though it may be sigma-smooth
    when sigma*n is fractional.
    """
    n = pmf.domain.n
    s = min_support_size(pmf.sigma, n)
    if not validate_smooth(pmf.mass, pmf.sigma):
        raise ValidationError("input pmf is not sigma-smooth")
    if float(pmf.mass.max()) > 1.0 / s + 1e-12:
        raise DecompositionError(
            f"max mass {float(pmf.mass.max())!r} exceeds 1/{s}; no mixture of "
            f"uniforms on >= {s} elements can represent it"
        )

    residual = np.array(pmf.mass, dtype=float)
    remaining = float(residual.sum())
    weights: list[float] = []
    sets: list[UniformOnSet] = []
    max_rounds = n * n + n
    for _ in range(max_rounds):
        if remaining <= 1e-12:
            break
        # Heaviest s coordinates, ties by index.
        order = np.lexsort((np.arange(n), -residual))
        chosen = np.sort(order[:s])
        r_in_min = float(residual[order[s - 1]])
        r_out_max = float(residual[order[s]]) if s < n else 0.0
        lam = min(s * r_in_min, remaining - s * r_out_max, remaining)
        if lam <= 0.0:
            raise DecompositionError("peeling stalled; residual is not representable")
        residual[chosen] -= lam / s
        np.clip(residual, 0.0, None, out=residual)
        remaining = float(residual.sum())
        weights.append(lam)
        sets.append(UniformOnSet(pmf.domain, tuple(int(v) + 1 for v in chosen)))
    else:
        if remaining > 1e-12:
            raise DecompositionError(
                f"peeling did not converge within {max_rounds} rounds (residual {remaining!r})"
            )

    total = sum(weights)
    components = tuple((w / total, comp) for w, comp in zip(weights, sets))
    return MixtureOfUniforms(pmf.domain, components, pmf.sigma)


def random_smooth_pmf(
    domain: FiniteDomain,
    sigma: float,
    gen: np.random.Generator,
    method: str = "mixture",
) -> SmoothPmf:
    """Generate a random sigma-smooth pmf that is representable as a mixture.

    ``mixture`` draws a random mixture of uniforms on random sets of size at
    least ceil(sigma*n) (Dirichlet weights), so representability holds by
    construction.  ``capped`` draws Dirichlet mass and redistributes overflow
    above the representability cap 1/ceil(sigma*n), producing boundary-rich
    pmfs with several coordinates exactly at the cap.
    """
    n = domain.n
    s = min_support_size(sigma, n)
    if method == "mixture":
        ncomp = int(gen.integers(1, 2 * n + 1))
        weights = gen.dirichlet(np.ones(ncomp))
        mass = np.zeros(n)
        for w in weights:
            size = int(gen.integers(s, n + 1))
            members = gen.choice(n, size=size, replace=False)
            mass[members] += w / size
        mass /= mass.sum()
        return SmoothPmf(domain, mass, sigma)
    if method == "capped":
        cap = 1.0 / s
        mass = gen.dirichlet(np.ones(n) * 0.5)
        for _ in range(10 * n):
            over = mass > cap
            if not np.any(over):
                break
            excess = float((mass[over] - cap).sum())
            mass[over] = cap
            under = ~over
            room = cap - mass[under]
            if float(room.sum()) <= 0.0:
                break
            share = room / room.sum()
            mass[under] += excess * share
        mass = np.minimum(mass, cap)
        mass /= mass.sum()
        return SmoothPmf(domain, mass, sigma)
    raise ValidationError(f"unknown method {method!r}")
