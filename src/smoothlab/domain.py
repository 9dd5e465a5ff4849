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
``np.random.Generator``.  ``DrawReplay`` replays a PCG64 generator's draws
from its raw words on Python ints, for loops too short to pay numpy's
per-call cost.
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
    "DrawReplay",
    "REPLAY_BLOCK_WORDS",
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


# The most 64-bit words a DrawReplay reads from its generator at once.
REPLAY_BLOCK_WORDS = 4096


class DrawReplay:
    """Replays a PCG64 ``Generator``'s draws from blocks of its raw 64-bit words.

    ``integers(low, high, size)`` returns, as a list of Python ints, the
    values ``gen.integers(low, high, size=size)`` would (int64, 1 <= high -
    low < 2^32), and ``random(size)`` the floats of ``gen.random(size)``; a
    scalar draw is a fill of one value.  Both follow numpy's own rules:
    ``integers`` takes 32-bit halves, the pending high half of the last word
    first, and applies Lemire's bounded rejection (a range of one draws
    nothing); ``random`` takes a whole word w per value, (w >> 11) * 2^-53,
    and leaves a pending half pending.

    Words are read ahead with ``random_raw``, ``words`` at a time (clamped to
    16 .. ``REPLAY_BLOCK_WORDS``); ``close`` rewinds the generator to the
    exact state numpy's own calls would have left, ``has_uint32`` and
    ``uinteger`` included.  Use it as a context manager, so the rewind also
    happens when a draw's caller raises, and do not draw from the generator
    itself while the replay is open.
    """

    __slots__ = ("_bitgen", "_start", "_block", "_chunk", "_halves", "_pos", "_dropped")

    def __init__(self, gen: np.random.Generator, words: int = REPLAY_BLOCK_WORDS) -> None:
        bitgen = gen.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise ValidationError(f"draws replay a PCG64 generator, got {type(bitgen).__name__}")
        self._bitgen = bitgen
        self._start = bitgen.state
        self._block = min(max(int(words), 16), REPLAY_BLOCK_WORDS)
        self._chunk = self._block // 2  # values per fill step, so one read covers a step
        # The 32-bit halves in draw order, low half of each word first.  Slot 1
        # holds the start's uinteger, so an odd position means a pending high
        # half, and the high half at (pos - 1) | 1 is always the uinteger.
        self._halves = [0, self._start["uinteger"]]
        self._pos = 1 if self._start["has_uint32"] else 2
        self._dropped = 0  # words trimmed from the front of _halves

    def __enter__(self) -> "DrawReplay":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _read(self, halves: int) -> None:
        """Make at least ``halves`` halves readable from the current position."""
        held = self._halves
        drop = (self._pos - 1) & ~1  # whole words, keeping the uinteger's slot
        del held[:drop]
        self._pos -= drop
        self._dropped += drop // 2
        while len(held) < self._pos + halves:
            # As little-endian words, each word's low half comes first.
            raw = self._bitgen.random_raw(self._block).astype("<u8", copy=False)
            held += raw.view("<u4").tolist()

    def integers(self, low: int, high: int, size: int) -> list[int]:
        """The values of ``gen.integers(low, high, size=size)``, as Python ints."""
        low, size = int(low), int(size)
        r = int(high) - low
        pos = self._pos
        end = pos + size
        if not (1 < r < 1 << 32 and 0 < size <= self._chunk):
            return self._integers_in_steps(low, r, size)
        held = self._halves
        if end > len(held):
            self._read(size)
            pos = self._pos
            end = pos + size
        draws = held[pos:end]
        threshold = (1 << 32) % r
        if threshold:
            for u in draws:
                if u * r & 0xFFFFFFFF < threshold:
                    return self._rejecting(low, r, threshold, size)
            self._pos = end
            return [(u * r >> 32) + low for u in draws]
        # r is a power of two, so (u * r) >> 32 is a shift and nothing is rejected.
        self._pos = end
        shift = 33 - r.bit_length()
        return [(u >> shift) + low for u in draws]

    def _integers_in_steps(self, low: int, r: int, size: int) -> list[int]:
        """``integers`` outside its one-step case: a fill longer than a step,
        a range of one, an empty fill, or bad arguments."""
        if not 0 < r < 1 << 32:
            raise ValidationError(f"replayed integers need 1 <= high - low < 2^32, got {r}")
        if size < 0:
            raise ValidationError(f"size must be >= 0, got {size}")
        if r == 1 or size == 0:
            return [low] * size
        out: list[int] = []
        for done in range(0, size, self._chunk):
            out += self.integers(low, low + r, min(self._chunk, size - done))
        return out

    def _rejecting(self, low: int, r: int, threshold: int, size: int) -> list[int]:
        """The Lemire loop one half at a time, for a fill that rejects a draw."""
        out = []
        for _ in range(size):
            m = 0
            while m & 0xFFFFFFFF < threshold:
                if self._pos == len(self._halves):
                    self._read(1)
                m = self._halves[self._pos] * r
                self._pos += 1
            out.append((m >> 32) + low)
        return out

    def random(self, size: int) -> list[float]:
        """The values of ``gen.random(size)``, as Python floats."""
        size = int(size)
        if size > self._chunk:
            out = []
            for done in range(0, size, self._chunk):
                out += self.random(min(self._chunk, size - done))
            return out
        if size < 0:
            raise ValidationError(f"size must be >= 0, got {size}")
        odd = self._pos & 1
        if self._pos + odd + 2 * size > len(self._halves):
            self._read(odd + 2 * size)
        held, pos = self._halves, self._pos
        start = pos + odd  # a pending half is skipped and stays pending
        end = start + 2 * size
        out = [
            ((hi << 32 | lo) >> 11) * 2.0**-53
            for lo, hi in zip(held[start:end:2], held[start + 1 : end : 2])
        ]
        # Carry the uinteger (pending or not) to the slot the new position reads it from.
        held[end - 1] = held[(pos - 1) | 1]
        self._pos = end - odd
        return out

    def close(self) -> None:
        """Rewind the generator to where numpy's calls would have left it."""
        pos = self._pos
        used = self._dropped + (pos + 1) // 2 - 1
        bitgen = self._bitgen
        bitgen.state = self._start
        if used:
            bitgen.advance(used)
        state = bitgen.state
        state["has_uint32"] = pos & 1
        state["uinteger"] = self._halves[(pos - 1) | 1]
        bitgen.state = state


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
    def member_set(self) -> frozenset[int]:
        """The members as a frozenset, built once per set, for membership tests."""
        return frozenset(self.members)

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
