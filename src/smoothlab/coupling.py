"""Adaptive-to-oblivious coupling for smooth sequences.

Each round, an adaptive ``SmoothAdversary`` emits a smooth distribution that
may depend on everything realized so far: a uniform set of at least
ceil(sigma*n) elements, or any sigma-smooth pmf.  The coupling draws k
independent uniform replicas from the whole domain and produces:

- Z_1..Z_k: uniform on the domain, i.i.d.  A set round resamples every
  replica that hits the set uniformly inside it; a pmf round keeps the
  replicas as drawn.
- X: the round's realized element, with the emitted distribution.  A set
  round picks it uniformly among the resampled replicas.  A pmf round
  accepts replica Z_i with probability D(Z_i)/max D and takes the first one
  accepted (rejection sampling, which needs only the density bound 1/sigma).

X lands inside {Z_1..Z_k} unless no replica hits the set, or none is
accepted, which happens with probability at most (1 - sigma)^k per round.
Over T rounds the union bound gives failure probability at most
T*(1-sigma)^k; ``default_k`` sizes k as ceil(10*ln(T)/sigma) to drive that
below any polynomial.

``verify_marginals`` checks on the (X, Z) arrays of a batch of traces that
every Z cell is uniform, that cells are pairwise independent (also across
rounds), and that later-round Z's do not depend on earlier realized X's.
``--assert`` checks the summary's ``containment_failure`` rate against the bound,
and on both sides against the exact rate of the harness's set adversaries.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from smoothlab.domain import (
    DrawReplay,
    FiniteDomain,
    RngStream,
    SmoothPmf,
    UniformOnSet,
    ValidationError,
    min_support_size,
    require_sigma,
    validate_smooth,
)
from smoothlab.stats import chi_square_table, chi_square_uniform

__all__ = [
    "UndersizedSetError",
    "CouplingConfig",
    "CouplingTrace",
    "SmoothAdversary",
    "stationary_set_adversary",
    "full_domain_adversary",
    "window_set_adversary",
    "last_value_adversary",
    "stationary_pmf_adversary",
    "default_k",
    "containment_bound",
    "couple_single_round",
    "couple_adaptive",
    "enumerate_containment_probability",
    "MARGINAL_MIN_TRACES",
    "MarginalReport",
    "verify_marginals",
    "traces_to_jsonl",
    "containment_flags",
    "traces_from_jsonl",
]


class UndersizedSetError(ValidationError):
    """The adversary emitted a set smaller than ceil(sigma*n)."""


def default_k(T: int, sigma: float) -> int:
    """Replica count ceil(10*ln(T)/sigma), floored at 1."""
    if T < 1:
        raise ValidationError(f"T must be >= 1, got {T}")
    require_sigma(sigma)
    return max(1, math.ceil(10.0 * math.log(T) / sigma))


def containment_bound(T: int, sigma: float, k: int) -> float:
    """Union bound T*(1-sigma)^k on the probability that any round misses."""
    return T * (1.0 - sigma) ** k


@dataclass(frozen=True)
class CouplingConfig:
    """Horizon T and replica count k for a coupled run."""

    T: int
    k: int

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValidationError(f"T must be >= 1, got {self.T}")
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class SmoothAdversary:
    """Adaptive sigma-smooth adversary.

    ``rule`` maps the realized elements X_1..X_{t-1}, a read-only int64
    array (empty in round 1), to round t's distribution: a ``UniformOnSet``
    of at least ceil(sigma*n) elements, or a sigma-smooth ``SmoothPmf``; it
    may switch between the two from round to round.
    """

    domain: FiniteDomain
    sigma: float
    rule: Callable[[np.ndarray], UniformOnSet | SmoothPmf]
    name: str = "custom"

    def __post_init__(self) -> None:
        require_sigma(self.sigma)


def stationary_set_adversary(domain: FiniteDomain, members: tuple[int, ...]) -> SmoothAdversary:
    """Plays the same set every round."""
    target = UniformOnSet(domain, members)
    sigma = target.size / domain.n
    return SmoothAdversary(domain, sigma, lambda xs: target, name="stationary-set")


def full_domain_adversary(domain: FiniteDomain) -> SmoothAdversary:
    """Plays the whole domain (sigma = 1); containment can never fail."""
    return stationary_set_adversary(domain, tuple(range(1, domain.n + 1)))


@functools.lru_cache(maxsize=4096)
def _wrapped_window(domain: FiniteDomain, start: int, size: int) -> UniformOnSet:
    """Uniform set on the ``size`` elements from 0-based ``start``, wrapping past n.

    Adversaries that play windows revisit at most n distinct sets, so each is
    built and validated once; the set is immutable and safe to share.
    """
    n = domain.n
    members = tuple(sorted(((start + j) % n) + 1 for j in range(size)))
    return UniformOnSet(domain, members)


def window_set_adversary(domain: FiniteDomain, sigma: float) -> SmoothAdversary:
    """Oblivious moving window: the set of size ceil(sigma*n) rotating with the round.

    The window wraps around the domain; its location depends only on the
    round index, never on realized values.
    """
    n = domain.n
    size = min_support_size(sigma, n)

    def rule(xs: np.ndarray) -> UniformOnSet:
        return _wrapped_window(domain, (len(xs) * size) % n, size)

    return SmoothAdversary(domain, sigma, rule, name="window")


def last_value_adversary(domain: FiniteDomain, sigma: float) -> SmoothAdversary:
    """Micro-case adversary: round 1 plays {1, .., s}, later rounds chase the last value.

    The set is {X_{t-1}, X_{t-1}+1, .., X_{t-1}+s-1} with wraparound, where
    s = ceil(sigma*n).  With n = 2 and sigma = 0.5 this is the two-round
    enumeration example: S_1 = {1}, S_2 = {X_1}.
    """
    n = domain.n
    size = min_support_size(sigma, n)

    def rule(xs: np.ndarray) -> UniformOnSet:
        start = int(xs[-1]) if len(xs) else 1
        return _wrapped_window(domain, (start - 1) % n, size)

    return SmoothAdversary(domain, sigma, rule, name="last-value")


def stationary_pmf_adversary(pmf: SmoothPmf) -> SmoothAdversary:
    """Plays the same smooth pmf every round; the rule that tests the pmf path of
    ``couple_adaptive``."""
    return SmoothAdversary(pmf.domain, pmf.sigma, lambda xs: pmf, name="stationary-pmf")


@dataclass(frozen=True, eq=False)
class CouplingTrace:
    """One coupled run: realized X's, the Z grid, and containment flags."""

    n: int
    X: np.ndarray  # shape (T,), realized elements, 1-based
    Z: np.ndarray  # shape (T, k), oblivious replicas, 1-based
    contained_rounds: np.ndarray  # shape (T,), bool, X_t in {Z_t,1..Z_t,k}

    @property
    def T(self) -> int:
        return int(self.X.shape[0])

    @property
    def contained(self) -> bool:
        return bool(self.contained_rounds.all())


def couple_single_round(S: UniformOnSet, k: int, draws: DrawReplay) -> tuple[int, list[int]]:
    """One round of the replica coupling against a uniform set, on Python ints.

    Draws Y_1..Y_k uniform on the domain; replicas that hit S are resampled
    uniformly inside S to form Z, and X is a uniform pick among those
    resampled values.  If no replica hits, X is a fresh uniform draw from S
    (and necessarily lands outside {Z}).  Returns X and Z as a list.

    ``draws`` replays the trial's ``Generator``, and the calls it replays are
    fixed, since every run's bytes rest on them: first ``integers(1, n + 1,
    size=k)`` for the replicas, then, when h >= 1 replicas hit,
    ``integers(S.size, size=h)`` for their resampled values followed by
    ``integers(h)`` for the pick; when none hits, the single call
    ``integers(S.size)``.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    members, member_set = S.members, S.member_set
    z = draws.integers(1, S.domain.n + 1, k)
    hits = [i for i, v in enumerate(z) if v in member_set]
    if hits:
        w = draws.integers(0, len(members), len(hits))
        for i, j in zip(hits, w):
            z[i] = members[j]
        x = members[w[draws.integers(0, len(hits), 1)[0]]]
    else:
        x = members[draws.integers(0, len(members), 1)[0]]
    return x, z


def couple_adaptive(
    adv: SmoothAdversary, cfg: CouplingConfig, gen: np.random.Generator
) -> CouplingTrace:
    """Run the coupling for T rounds against an adaptive smooth adversary.

    Every draw comes from one ``DrawReplay`` of ``gen`` (a PCG64 generator),
    which leaves ``gen`` as the numpy calls below would, also when a round
    raises.  An emitted set must hold at least ceil(sigma*n) elements and is
    coupled by ``couple_single_round``.  An emitted pmf D must be
    sigma-smooth and is coupled by rejection, with three groups of draws: the
    replicas Z through the set round's first call, ``integers(1, n + 1,
    size=k)``; k acceptance coins through ``random(k)``, where Z_i is
    accepted iff ``coin_i * max(D) < D(Z_i)``; and, only when none is
    accepted, one ``random()`` u, with X the cell where ``cumsum(D) / total``
    first exceeds u.  Otherwise X is the first accepted Z_i.  Either way
    X ~ D while Z stays i.i.d. uniform.  The rule sees a read-only view of
    X's realized prefix.
    """
    n, k = adv.domain.n, cfg.k
    floor = min_support_size(adv.sigma, n)
    X = np.empty(cfg.T, dtype=np.int64)
    realized = X.view()
    realized.flags.writeable = False
    Z: list[int] = []  # row by row
    contained: list[bool] = []
    # Rules that revisit a set or pmf return the same object; check each
    # object once.  The dict holds the object itself, so no later one can be
    # allocated at a freed one's address and skip its check by id.
    checked: dict[int, UniformOnSet | SmoothPmf] = {}
    # A set round of ceil(sigma*n) members reads k/2 words for its replicas and
    # about sigma*k/2 for the resampled hits; one more word a round is slack.
    with DrawReplay(gen, words=cfg.T * (k + math.ceil(adv.sigma * k) + 4) // 2) as draws:
        for t in range(cfg.T):
            dist = adv.rule(realized[:t])
            if id(dist) not in checked:
                if isinstance(dist, UniformOnSet):
                    if dist.domain != adv.domain:
                        raise ValidationError("adversary emitted a set on the wrong domain")
                    if dist.size < floor:
                        raise UndersizedSetError(
                            f"round {t + 1}: set size {dist.size} below floor {floor} "
                            f"for sigma={adv.sigma}"
                        )
                elif isinstance(dist, SmoothPmf):
                    if dist.domain != adv.domain:
                        raise ValidationError("adversary emitted a pmf on the wrong domain")
                    if not validate_smooth(dist.mass, adv.sigma):
                        raise ValidationError(
                            f"round {t + 1}: emitted pmf is not {adv.sigma}-smooth"
                        )
                else:
                    raise ValidationError(
                        f"round {t + 1}: adversary emitted {type(dist).__name__}, "
                        "not a UniformOnSet or SmoothPmf"
                    )
                checked[id(dist)] = dist
            if isinstance(dist, UniformOnSet):
                x, z = couple_single_round(dist, k, draws)
            else:
                mass = dist.mass.tolist()
                top = max(mass)
                z = draws.integers(1, n + 1, k)
                coins = draws.random(k)
                x = next((zi for zi, c in zip(z, coins) if c * top < mass[zi - 1]), None)
                if x is None:
                    cdf = dist.mass.cumsum()
                    x = np.searchsorted(cdf / cdf[-1], draws.random(1)[0], side="right") + 1
            X[t] = x
            Z += z
            contained.append(x in z)
    return CouplingTrace(
        n=n,
        X=X,
        Z=np.fromiter(Z, np.int64, len(Z)).reshape(cfg.T, k),
        contained_rounds=np.array(contained),
    )


def enumerate_containment_probability(adv: SmoothAdversary, cfg: CouplingConfig) -> float:
    """Exact probability that every round's X lands in its Z set.

    Sweeps the full outcome tree (replica draws, resampled values, and the
    uniform pick), so it is only feasible for tiny n, k, and T; the work is
    bounded before starting.  Serves as the independent oracle for the Monte
    Carlo containment estimates.  The rule must emit sets, not pmfs.
    """
    n = adv.domain.n
    work = (n**cfg.k * (n**cfg.k) * cfg.k) ** cfg.T
    if work > 10**8:
        raise ValidationError(f"enumeration too large (estimated {work} branches)")

    elements = list(range(1, n + 1))

    def recurse(past: tuple[int, ...], rounds_left: int) -> float:
        if rounds_left == 0:
            return 1.0
        S = adv.rule(np.array(past, dtype=np.int64))
        if not isinstance(S, UniformOnSet):
            raise ValidationError("enumeration needs an adversary that emits sets")
        members = list(S.members)
        member_set = set(members)
        size = len(members)
        acc = 0.0
        for y in itertools.product(elements, repeat=cfg.k):
            p_y = n ** (-cfg.k)
            hits = [i for i, v in enumerate(y) if v in member_set]
            if hits:
                for wvec in itertools.product(members, repeat=len(hits)):
                    p_w = p_y * size ** (-len(hits))
                    z = list(y)
                    for slot, value in zip(hits, wvec):
                        z[slot] = value
                    z_set = set(z)
                    for pick in wvec:
                        if pick in z_set:
                            acc += (p_w / len(hits)) * recurse(past + (pick,), rounds_left - 1)
            else:
                z_set = set(y)
                for x in members:
                    if x in z_set:
                        acc += (p_y / size) * recurse(past + (x,), rounds_left - 1)
        return acc

    return recurse((), cfg.T)


# verify_marginals needs at least this many traces; below that the per-cell
# counts are too thin for stable chi-square p-values.
MARGINAL_MIN_TRACES = 10_000


@dataclass(frozen=True, eq=False)
class MarginalReport:
    """Distributional diagnostics over a batch of coupled traces."""

    n_traces: int
    cell_pvalues: np.ndarray  # shape (T, k), uniformity of each Z cell
    pair_pvalues: tuple[float, ...]  # independence of sampled cell pairs
    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    homogeneity_pvalues: tuple[float, ...]  # round-2 cells vs realized X_1 strata

    def passed(self, alpha: float = 0.001) -> bool:
        cells_ok = bool((self.cell_pvalues > alpha).all())
        pairs_ok = all(p > alpha for p in self.pair_pvalues)
        homog_ok = all(p > alpha for p in self.homogeneity_pvalues)
        return cells_ok and pairs_ok and homog_ok


def _sample_pairs(
    T: int, k: int, n_pairs: int, pair_seed: int
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Up to ``n_pairs`` distinct cell pairs, drawn from ``pair_seed``.

    When T > 1, at least half the pairs span two rounds: once the cross-round
    pairs still owed fill every remaining slot, a same-round draw is skipped.
    The draws stop when the pairs are complete, when no pair left unseen
    could be accepted, or after 10,000 draws.
    """
    gen = RngStream(seed=pair_seed, stream_id=0).generator()
    all_cells = [(t, i) for t in range(T) for i in range(k)]
    n_all = len(all_cells) * (len(all_cells) - 1) // 2
    n_cross = n_all - T * (k * (k - 1) // 2)
    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []
    want_cross = n_pairs // 2 if T > 1 else 0
    cross = 0
    guard = 0
    while len(pairs) < n_pairs and guard < 10_000:
        cross_only = want_cross - cross >= n_pairs - len(pairs)
        if (n_cross - cross if cross_only else n_all - len(pairs)) == 0:
            break
        guard += 1
        a, b = gen.choice(len(all_cells), size=2, replace=False)
        ca, cb = all_cells[a], all_cells[b]
        pair = (ca, cb) if ca <= cb else (cb, ca)
        if pair in pairs or (cross_only and pair[0][0] == pair[1][0]):
            continue
        pairs.append(pair)
        cross += pair[0][0] != pair[1][0]
    return pairs


def verify_marginals(
    X: np.ndarray, Z: np.ndarray, n: int, n_pairs: int = 20, pair_seed: int = 0
) -> MarginalReport:
    """Check Z-cell uniformity on 1..n and pairwise independence.

    Needs ``MARGINAL_MIN_TRACES`` traces as X (N, T) and Z (N, T, k) arrays
    of any integer dtype, such as the compact ones ``traces_from_jsonl``
    returns; the counts, and so the report, do not depend on it.  Pairs of
    cells are drawn deterministically from ``pair_seed`` (``_sample_pairs``);
    when the trace has more than one round, at least half of the pairs span
    two rounds, which also exercises the independence of later-round replicas
    from earlier realized values.
    """
    if Z.ndim != 3 or X.shape != Z.shape[:2]:
        raise ValidationError(f"X {X.shape} and Z {Z.shape} are not (N, T) and (N, T, k)")
    N, T, k = Z.shape
    if N < MARGINAL_MIN_TRACES:
        raise ValidationError(
            f"need at least {MARGINAL_MIN_TRACES} traces for stable chi-square tests, got {N}"
        )

    cell_pvalues = np.empty((T, k))
    for t in range(T):
        for i in range(k):
            counts = np.bincount(Z[:, t, i] - 1, minlength=n)
            _, cell_pvalues[t, i] = chi_square_uniform(counts)

    pairs = _sample_pairs(T, k, n_pairs, pair_seed)
    pair_pvalues = []
    for (t1, i1), (t2, i2) in pairs:
        table = np.zeros((n, n))
        np.add.at(table, (Z[:, t1, i1] - 1, Z[:, t2, i2] - 1), 1)
        _, p = chi_square_table(table)
        pair_pvalues.append(p)

    homogeneity_pvalues: list[float] = []
    if T > 1:
        x1 = X[:, 0]
        strata = np.unique(x1)
        strata = strata[np.array([int((x1 == s).sum()) for s in strata]) >= 200]
        if strata.size >= 2:
            for i in range(k):
                table = np.zeros((strata.size, n))
                for row, s in enumerate(strata):
                    table[row] = np.bincount(Z[x1 == s, 1, i] - 1, minlength=n)
                _, p = chi_square_table(table)
                homogeneity_pvalues.append(p)

    return MarginalReport(
        n_traces=N,
        cell_pvalues=cell_pvalues,
        pair_pvalues=tuple(pair_pvalues),
        pairs=tuple(pairs),
        homogeneity_pvalues=tuple(homogeneity_pvalues),
    )


def traces_to_jsonl(traces: list[CouplingTrace]) -> str:
    """Serialize traces, one JSON object per line: {"X", "Z", "contained"}."""
    # Python prints a list of ints exactly as json.dumps writes it.
    lines = []
    for tr in traces:
        flag = "true" if tr.contained else "false"
        lines.append(f'{{"X": {tr.X.tolist()}, "Z": {tr.Z.tolist()}, "contained": {flag}}}')
    return "\n".join(lines) + "\n"


def containment_flags(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Per trace, whether every round's X lies among its Z's: X (N, T) and
    Z (N, T, k) give a bool array of shape (N,)."""
    return (Z == X[:, :, None]).any(axis=2).all(axis=1)


# X and Z cells per parse chunk: 256 KiB of int64, 240 traces at T=8 and k=16.
_PARSE_CHUNK_CELLS = 1 << 15

_DIGITS = b"0123456789"


def _json_trace(line: str, index: int, shape: tuple[int, int] | None):
    """X, Z and the containment flag of trace ``index`` (1-based), read with
    ``json.loads``.  ``shape`` is the first trace's (T, k), or None while
    reading the first trace, which sets it."""
    try:
        obj = json.loads(line)
        x, z = np.asarray(obj["X"]), np.asarray(obj["Z"])
        flag = obj["contained"]
        if shape is None:
            shape = (x.shape[0], z.shape[1])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ValidationError(f"trace {index} is not a serialized trace: {exc}") from exc
    if type(flag) is not bool:
        raise ValidationError(f"trace {index}: containment flag {flag!r} is not a JSON bool")
    T, k = shape
    if (x.shape, z.shape, x.dtype.kind, z.dtype.kind) != ((T,), (T, k), "i", "i"):
        raise ValidationError(
            f"trace {index}: X {x.shape} and Z {z.shape} are not integer arrays "
            f"of the first trace's shapes {(T,)} and {(T, k)}"
        )
    return x, z, flag


def _json_chunk(chunk: list[str], n: int, shape: tuple[int, int], done: int):
    """int64 X and Z of a chunk of lines, read line by line with ``json.loads``.

    This reader takes any JSON spelling of a trace and is the one that raises
    the parse errors; ``done`` counts the traces before the chunk.
    """
    X = np.empty((len(chunk), shape[0]), dtype=np.int64)
    Z = np.empty((len(chunk), *shape), dtype=np.int64)
    flags = np.empty(len(chunk), dtype=bool)
    for i, line in enumerate(chunk):
        X[i], Z[i], flags[i] = _json_trace(line, done + i + 1, shape)
    bad = ((X < 1) | (X > n)).any(axis=1) | ((Z < 1) | (Z > n)).any(axis=(1, 2))
    if bad.any():
        raise ValidationError(f"trace {done + bad.argmax() + 1}: values outside 1..{n}")
    bad = containment_flags(X, Z) != flags
    if bad.any():
        raise ValidationError(f"trace {done + bad.argmax() + 1}: containment flag mismatch")
    return X, Z


def _skeletons(T: int, k: int) -> list[bytes]:
    """The line ``traces_to_jsonl`` writes for a (T, k) trace with its digits
    removed: item 0 for a false containment flag, item 1 for a true one."""
    X, Z = np.ones(T, dtype=np.int64), np.ones((T, k), dtype=np.int64)
    lines = [traces_to_jsonl([CouplingTrace(1, X, Z, np.full(T, f))]) for f in (False, True)]
    return [line.rstrip("\n").encode().translate(None, _DIGITS) for line in lines]


def _canonical_chunk(chunk: list[str], n: int, shape: tuple[int, int]):
    """int64 X and Z of a chunk whose lines are exactly what ``traces_to_jsonl``
    writes for (T, k) traces with values in 1..n, read without JSON; None for
    any other chunk.

    Such a line is its skeleton (``_skeletons``) with one number in each value
    slot, between "[" or " " and "," or "]".  So the chunk is taken when its
    runs of digits fill the slots, one run each, every run starts with 1..9
    and reads at most n, and the skeletons left when the digits go match the
    containment flags the values give.  ``_json_chunk`` reads such a chunk to
    the same arrays.
    """
    T, k = shape
    digits = len(str(n))  # no value in 1..n has more; int64 holds any 18 digits
    try:
        text = "\n".join([line.rstrip("\n") for line in chunk])
    except TypeError:  # bytes lines, which json.loads also reads
        return None
    if not text.isascii() or digits > 18:
        return None
    raw = text.encode()
    b = np.frombuffer(raw, dtype=np.uint8)
    d = b - ord("0")  # a digit's value, and 10 or more for any other byte
    is_digit = d < 10
    if is_digit[0] or is_digit[-1]:
        return None
    # The runs of digits: is_digit flips at each run's start and at its end.
    bounds = np.flatnonzero(is_digit[1:] != is_digit[:-1]) + 1
    starts, ends = bounds[0::2], bounds[1::2]
    if starts.size != len(chunk) * T * (k + 1):
        return None
    lengths = ends - starts
    before, first, after = b[starts - 1], d[starts], b[ends]
    if not (
        ((before == ord("[")) | (before == ord(" "))).all()
        and ((after == ord(",")) | (after == ord("]"))).all()
        and first.all()
        and lengths.max() <= digits
    ):
        return None
    values = first.astype(np.int64)
    for j in range(1, digits):
        values = np.where(lengths > j, values * 10 + d.take(starts + j, mode="clip"), values)
    if values.max() > n:
        return None
    cells = values.reshape(len(chunk), T * (k + 1))
    X, Z = cells[:, :T], cells[:, T:].reshape(len(chunk), T, k)
    skeletons = _skeletons(T, k)
    expected = b"\n".join([skeletons[f] for f in containment_flags(X, Z).tolist()])
    if raw.translate(None, _DIGITS) != expected:
        return None
    return X, Z


def traces_from_jsonl(lines: Iterable[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``traces_to_jsonl``: X (N, T) and Z (N, T, k).

    ``lines`` is any iterable of lines, such as an open file or a text's
    ``splitlines()``, and is read once, in order.  Both arrays take the
    smallest signed integer dtype that holds n (int8 for n <= 127), so a
    run's Z costs one byte a cell.  The first trace is read with
    ``json.loads`` for its T and k.  Then the non-blank lines are read in
    chunks of about ``_PARSE_CHUNK_CELLS`` cells, each narrowed on its own,
    and the chunks are joined at the end.  A chunk in exactly the bytes
    ``traces_to_jsonl`` writes is read without JSON, in a few numpy passes
    over its bytes.  Any other chunk, such as valid JSON spaced another way,
    or a faulty one, is read line by line with ``json.loads``, which reads a
    canonical chunk to the same arrays and is the one that raises the errors
    below.

    The text is outside input.  ``ValidationError`` names the 1-based index of
    a trace (non-blank line) that is malformed, differs in shape from the
    first, holds a value outside 1..n, or has a containment flag that is not
    a JSON bool or that its X and Z contradict.  Faults are found chunk by
    chunk, in file order; within a chunk, the first malformed trace is
    reported before any value outside 1..n, and that before any flag that its
    X and Z contradict.
    """
    dtype = np.min_scalar_type(-n - 1)  # -(n + 1) fits a signed type exactly when n does
    traces = (line for line in lines if line.strip())
    first = next(traces, None)
    if first is None:
        raise ValidationError("no serialized traces")
    x, z, _ = _json_trace(first, 1, None)
    shape = z.shape
    rows = max(1, _PARSE_CHUNK_CELLS // (x.size + z.size))
    traces = itertools.chain([first], traces)
    X_parts: list[np.ndarray] = []
    Z_parts: list[np.ndarray] = []
    done = 0  # traces in the chunks already read
    while chunk := list(itertools.islice(traces, rows)):
        X, Z = _canonical_chunk(chunk, n, shape) or _json_chunk(chunk, n, shape, done)
        X_parts.append(X.astype(dtype))
        Z_parts.append(Z.astype(dtype))
        done += len(chunk)
    return np.concatenate(X_parts), np.concatenate(Z_parts)
