"""Tests for the adaptive-to-oblivious replica coupling.

Frozen oracle values:

- single round, n=2, S={1}, k=1: containment probability is exactly 1/2
  (contained iff the lone replica hits the set).
- single round, n=4, S={1,2}, k=2: failure probability is exactly
  (1 - 1/2)^2 = 1/4.
- adaptive micro-case, n=2, sigma=1/2, T=2, k=2, sets S_1={1}, S_2={X_1}:
  each round fails independently with (1/2)^2, so the all-contained
  probability is (3/4)^2 = 0.5625 exactly.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab import coupling
from smoothlab.coupling import (
    MARGINAL_MIN_TRACES,
    CouplingConfig,
    CouplingTrace,
    SmoothAdversary,
    UndersizedSetError,
    containment_bound,
    couple_adaptive,
    couple_single_round,
    default_k,
    enumerate_containment_probability,
    full_domain_adversary,
    last_value_adversary,
    stationary_pmf_adversary,
    stationary_set_adversary,
    traces_from_jsonl,
    traces_to_jsonl,
    verify_marginals,
    window_set_adversary,
)
from smoothlab.domain import (
    DecompositionError,
    DrawReplay,
    FiniteDomain,
    RngStream,
    SmoothPmf,
    UniformOnSet,
    ValidationError,
    decompose_smooth,
    min_support_size,
    random_smooth_pmf,
    validate_smooth,
)
from smoothlab.stats import binomial_stderr, chi_square_fit, chi_square_uniform


def test_default_k():
    assert default_k(1, 0.5) == 1
    assert default_k(8, 0.25) == math.ceil(10 * math.log(8) / 0.25)
    with pytest.raises(ValidationError):
        default_k(0, 0.5)
    with pytest.raises(ValidationError):
        default_k(4, 0.0)


def test_containment_bound_formula():
    assert containment_bound(4, 0.25, 8) == 4 * 0.75**8
    assert containment_bound(1, 1.0, 3) == 0.0


def test_single_round_full_set_always_contained():
    dom = FiniteDomain(4)
    S = UniformOnSet(dom, (1, 2, 3, 4))
    with DrawReplay(RngStream(seed=201).generator()) as draws:
        for _ in range(1000):
            x, z = couple_single_round(S, 3, draws)
            assert x in set(int(v) for v in z)


def test_single_round_half_probability_micro_case():
    # n=2, S={1}, k=1: exact containment probability 1/2.
    dom = FiniteDomain(2)
    S = UniformOnSet(dom, (1,))
    adv = stationary_set_adversary(dom, (1,))
    exact = enumerate_containment_probability(adv, CouplingConfig(T=1, k=1))
    assert abs(exact - 0.5) <= 1e-12

    n_trials = 100_000
    hits = 0
    with DrawReplay(RngStream(seed=202).generator()) as draws:
        for _ in range(n_trials):
            x, z = couple_single_round(S, 1, draws)
            hits += int(x == int(z[0]))
    rate = hits / n_trials
    assert abs(rate - 0.5) <= 3 * binomial_stderr(0.5, n_trials)


def test_single_round_quarter_failure():
    # n=4, S={1,2}, k=2: exact failure probability 1/4.
    dom = FiniteDomain(4)
    S = UniformOnSet(dom, (1, 2))
    n_trials = 100_000
    failures = 0
    with DrawReplay(RngStream(seed=203).generator()) as draws:
        for _ in range(n_trials):
            x, z = couple_single_round(S, 2, draws)
            failures += int(x not in set(int(v) for v in z))
    rate = failures / n_trials
    assert abs(rate - 0.25) <= 3 * binomial_stderr(0.25, n_trials)


def test_single_round_marginals():
    # X uniform on S; each Z_i uniform on the domain.
    dom = FiniteDomain(4)
    S = UniformOnSet(dom, (1, 3))
    n_trials = 50_000
    xs = np.empty(n_trials, dtype=int)
    zs = np.empty((n_trials, 2), dtype=int)
    with DrawReplay(RngStream(seed=204).generator()) as draws:
        for i in range(n_trials):
            x, z = couple_single_round(S, 2, draws)
            xs[i] = x
            zs[i] = z
    assert set(np.unique(xs)) == {1, 3}
    counts_x = np.array([(xs == 1).sum(), (xs == 3).sum()])
    _, p_x = chi_square_uniform(counts_x)
    assert p_x > 0.001
    for col in range(2):
        counts = np.bincount(zs[:, col] - 1, minlength=4)
        _, p = chi_square_uniform(counts)
        assert p > 0.001


def test_single_round_rejects_bad_k():
    dom = FiniteDomain(2)
    S = UniformOnSet(dom, (1,))
    with pytest.raises(ValidationError):
        couple_single_round(S, 0, DrawReplay(RngStream(seed=1).generator()))


def test_adaptive_micro_case_enumeration_and_monte_carlo():
    dom = FiniteDomain(2)
    adv = last_value_adversary(dom, 0.5)
    cfg = CouplingConfig(T=2, k=2)
    exact = enumerate_containment_probability(adv, cfg)
    assert abs(exact - 0.5625) <= 1e-12

    n_trials = 100_000
    contained = 0
    for i in range(n_trials):
        tr = couple_adaptive(adv, cfg, RngStream(seed=205, stream_id=i).generator())
        contained += int(tr.contained)
    rate = contained / n_trials
    assert abs(rate - exact) <= 3 * binomial_stderr(exact, n_trials)


def test_enumeration_matches_independent_rounds_product():
    # All sets have density 1/2, so the exact probability factorizes.
    dom = FiniteDomain(4)
    adv = window_set_adversary(dom, 0.5)
    cfg = CouplingConfig(T=2, k=2)
    exact = enumerate_containment_probability(adv, cfg)
    assert abs(exact - (1 - 0.25) ** 2) <= 1e-12


def test_enumeration_guards_against_blowup():
    dom = FiniteDomain(16)
    adv = window_set_adversary(dom, 0.5)
    with pytest.raises(ValidationError):
        enumerate_containment_probability(adv, CouplingConfig(T=8, k=16))


def test_adaptive_full_domain_never_fails():
    dom = FiniteDomain(8)
    adv = full_domain_adversary(dom)
    tr = couple_adaptive(adv, CouplingConfig(T=16, k=2), RngStream(seed=206).generator())
    assert tr.contained
    assert tr.contained_rounds.all()


def test_adaptive_failure_rate_below_union_bound():
    # (n, sigma, T, k) = (8, 0.25, 4, 8); bound = 4 * 0.75^8.
    dom = FiniteDomain(8)
    adv = last_value_adversary(dom, 0.25)
    cfg = CouplingConfig(T=4, k=8)
    n_trials = 10_000
    failures = 0
    for i in range(n_trials):
        tr = couple_adaptive(adv, cfg, RngStream(seed=207, stream_id=i).generator())
        failures += int(not tr.contained)
    bound = containment_bound(cfg.T, adv.sigma, cfg.k)
    assert failures / n_trials <= bound + 3 * binomial_stderr(bound, n_trials)


def test_adaptive_rejects_undersized_sets():
    dom = FiniteDomain(4)
    bad = SmoothAdversary(dom, 0.5, lambda xs: UniformOnSet(dom, (1,)), name="bad")
    with pytest.raises(UndersizedSetError):
        couple_adaptive(bad, CouplingConfig(T=1, k=2), RngStream(seed=208).generator())


def _switching_adversary(dom, good_rounds, later):
    """Plays one valid set object for ``good_rounds`` rounds, then ``later()``."""
    good = UniformOnSet(dom, (1, 2))
    return SmoothAdversary(
        dom, 0.5, lambda xs: good if len(xs) < good_rounds else later(), name="switch"
    )


# couple_adaptive checks each set object once; a new set after rounds of a
# checked one is checked in turn.
def test_checked_set_memo_still_rejects_a_later_undersized_set():
    dom = FiniteDomain(4)
    adv = _switching_adversary(dom, 3, lambda: UniformOnSet(dom, (3,)))
    with pytest.raises(UndersizedSetError, match="round 4: set size 1 below floor 2"):
        couple_adaptive(adv, CouplingConfig(T=6, k=2), RngStream(seed=208).generator())


def test_checked_set_memo_still_rejects_a_later_wrong_domain_set():
    dom = FiniteDomain(4)
    adv = _switching_adversary(dom, 3, lambda: UniformOnSet(FiniteDomain(5), (1, 2)))
    with pytest.raises(ValidationError, match="wrong domain"):
        couple_adaptive(adv, CouplingConfig(T=6, k=2), RngStream(seed=208).generator())


def test_general_coupling_realized_marginal_matches_pmf():
    dom = FiniteDomain(4)
    pmf = SmoothPmf(dom, np.array([0.5, 0.3, 0.1, 0.1]), sigma=0.5)
    adv = stationary_pmf_adversary(pmf)
    cfg = CouplingConfig(T=3, k=4)
    n_trials = 50_000
    xs = np.empty((n_trials, cfg.T), dtype=int)
    contained = 0
    for i in range(n_trials):
        tr = couple_adaptive(adv, cfg, RngStream(seed=209, stream_id=i).generator())
        xs[i] = tr.X
        contained += int(tr.contained)
    for t in range(cfg.T):
        counts = np.bincount(xs[:, t] - 1, minlength=4)
        _, p = chi_square_fit(counts, pmf.mass)
        assert p > 0.001
    bound = containment_bound(cfg.T, 0.5, cfg.k)
    assert 1 - contained / n_trials <= bound + 3 * binomial_stderr(bound, n_trials)


def test_general_coupling_uniform_pmf_never_fails():
    dom = FiniteDomain(4)
    pmf = SmoothPmf(dom, np.full(4, 0.25), sigma=1.0)
    adv = stationary_pmf_adversary(pmf)
    tr = couple_adaptive(adv, CouplingConfig(T=8, k=1), RngStream(seed=210).generator())
    assert tr.contained


def test_general_coupling_rejects_rough_pmf():
    dom = FiniteDomain(4)
    rough = SmoothPmf(dom, np.array([0.6, 0.2, 0.1, 0.1]), sigma=0.25)
    adv = SmoothAdversary(dom, 0.5, lambda xs: rough, name="rough")
    with pytest.raises(ValidationError):
        couple_adaptive(adv, CouplingConfig(T=1, k=1), RngStream(seed=211).generator())


def test_pmf_above_the_mixture_cap_couples():
    # sigma*n = 1.5: the smoothness cap 1/(sigma*n) = 2/3 lies above 1/ceil(sigma*n)
    # = 1/2, so this sigma-smooth pmf is no mixture of uniforms on >= 2 elements.
    dom = FiniteDomain(5)
    pmf = SmoothPmf(dom, np.array([0.6, 0.1, 0.1, 0.1, 0.1]), sigma=0.3)
    assert validate_smooth(pmf.mass, 0.3)
    with pytest.raises(DecompositionError):
        decompose_smooth(pmf)
    adv = stationary_pmf_adversary(pmf)
    cfg = CouplingConfig(T=2, k=4)
    n_trials = 20_000
    xs = np.empty((n_trials, cfg.T), dtype=int)
    contained = 0
    for i in range(n_trials):
        tr = couple_adaptive(adv, cfg, RngStream(seed=222, stream_id=i).generator())
        xs[i] = tr.X
        contained += int(tr.contained)
    for t in range(cfg.T):
        _, p = chi_square_fit(np.bincount(xs[:, t] - 1, minlength=5), pmf.mass)
        assert p > 0.001
    bound = containment_bound(cfg.T, 0.3, cfg.k)
    assert 1 - contained / n_trials <= bound + 3 * binomial_stderr(bound, n_trials)


def test_verify_marginals_requires_enough_traces():
    dom = FiniteDomain(2)
    adv = stationary_set_adversary(dom, (1,))
    traces = [
        couple_adaptive(
            adv, CouplingConfig(T=1, k=1), RngStream(seed=212, stream_id=i).generator()
        )
        for i in range(10)
    ]
    X = np.stack([tr.X for tr in traces])
    Z = np.stack([tr.Z for tr in traces])
    with pytest.raises(ValidationError):
        verify_marginals(X, Z, 2)


def test_verify_marginals_rejects_mismatched_shapes():
    X = np.ones((MARGINAL_MIN_TRACES, 2), dtype=np.int64)
    Z = np.ones((MARGINAL_MIN_TRACES, 3, 2), dtype=np.int64)
    with pytest.raises(ValidationError, match="are not \\(N, T\\) and \\(N, T, k\\)"):
        verify_marginals(X, Z, 2)
    with pytest.raises(ValidationError):
        verify_marginals(X, Z[:, :2, 0], 2)


def test_verify_marginals_on_adaptive_traces():
    # The chasing adversary makes round-2 sets depend on X_1; the Z grid must
    # still look i.i.d. uniform and independent of X_1.
    dom = FiniteDomain(4)
    adv = last_value_adversary(dom, 0.5)
    cfg = CouplingConfig(T=2, k=3)
    traces = [
        couple_adaptive(adv, cfg, RngStream(seed=217, stream_id=i).generator())
        for i in range(12_000)
    ]
    X = np.stack([tr.X for tr in traces])
    Z = np.stack([tr.Z for tr in traces])
    report = verify_marginals(X, Z, 4, n_pairs=10, pair_seed=1)
    assert report.n_traces == 12_000
    assert report.cell_pvalues.shape == (2, 3)
    assert report.passed(alpha=0.001)
    assert len(report.homogeneity_pvalues) == cfg.k
    # At least half the sampled pairs span distinct rounds.
    cross = sum(1 for (a, b) in report.pairs if a[0] != b[0])
    assert cross >= 5


def test_verify_marginals_on_adaptive_pmf_traces():
    # Round 2's pmf puts the cap 1/(sigma*n) = 1/2 on X_1; Z must stay i.i.d.
    # uniform and independent of X_1 all the same.
    dom = FiniteDomain(4)
    pmfs = [
        SmoothPmf(dom, np.where(np.arange(1, 5) == v, 0.5, 0.5 / 3), sigma=0.5)
        for v in range(1, 5)
    ]
    adv = SmoothAdversary(dom, 0.5, lambda xs: pmfs[xs[-1] - 1 if len(xs) else 0], "chase-pmf")
    cfg = CouplingConfig(T=2, k=3)
    traces = [
        couple_adaptive(adv, cfg, RngStream(seed=223, stream_id=i).generator())
        for i in range(MARGINAL_MIN_TRACES)
    ]
    X = np.stack([tr.X for tr in traces])
    Z = np.stack([tr.Z for tr in traces])
    report = verify_marginals(X, Z, 4, n_pairs=10, pair_seed=1)
    assert report.passed(alpha=0.001)
    assert len(report.homogeneity_pvalues) == cfg.k


def test_verify_marginals_with_one_cell_has_no_pairs():
    gen = RngStream(seed=224).generator()
    X = gen.integers(1, 5, size=(MARGINAL_MIN_TRACES, 1))
    Z = gen.integers(1, 5, size=(MARGINAL_MIN_TRACES, 1, 1))
    report = verify_marginals(X, Z, 4)
    assert report.cell_pvalues.shape == (1, 1)
    assert report.pairs == () and report.pair_pvalues == ()
    assert report.homogeneity_pvalues == ()
    assert report.passed()


def test_trace_jsonl_round_trip():
    dom = FiniteDomain(4)
    adv = last_value_adversary(dom, 0.5)
    cfg = CouplingConfig(T=3, k=2)
    traces = [
        couple_adaptive(adv, cfg, RngStream(seed=214, stream_id=i).generator()) for i in range(5)
    ]
    text = traces_to_jsonl(traces)
    # Bytes lines, which json.loads reads, take the line-by-line reader.
    for lines in (text.splitlines(), io.StringIO(text), text.encode().splitlines()):
        X, Z = traces_from_jsonl(lines, n=4)
        assert X.dtype == Z.dtype == np.int8
        assert np.array_equal(X, np.stack([tr.X for tr in traces]))
        assert np.array_equal(Z, np.stack([tr.Z for tr in traces]))


@pytest.mark.parametrize(
    "n, dtype", [(1, np.int8), (127, np.int8), (128, np.int16), (40_000, np.int32)]
)
def test_trace_jsonl_dtype_holds_n(n, dtype):
    trace = {"X": [n, 1], "Z": [[n, 1], [1, n]], "contained": True}
    X, Z = traces_from_jsonl([json.dumps(trace)], n=n)
    assert X.dtype == Z.dtype == dtype
    assert X.tolist() == [trace["X"]] and Z.tolist() == [trace["Z"]]


def _random_traces(n, T, k, N, seed):
    gen = RngStream(seed).generator()
    X = gen.integers(1, n + 1, size=(N, T))
    Z = gen.integers(1, n + 1, size=(N, T, k))
    rounds = (Z == X[:, :, None]).any(axis=2)
    return X, Z, [CouplingTrace(n, x, z, r) for x, z, r in zip(X, Z, rounds)]


def test_trace_jsonl_parses_across_chunks():
    # T * (k + 1) = 1040 cells a trace, so a chunk holds 31 traces; parse 2.5 chunks.
    n, T, k = 8, 16, 64
    rows = coupling._PARSE_CHUNK_CELLS // (T * (k + 1))
    X, Z, traces = _random_traces(n, T, k, 2 * rows + rows // 2, seed=231)
    lines = traces_to_jsonl(traces).splitlines()
    # Blank lines at the start, on both chunk boundaries and at the end.
    spaced = ["", *lines[:rows], " ", *lines[rows : 2 * rows], "", *lines[2 * rows :], "\t"]
    X2, Z2 = traces_from_jsonl(io.StringIO("\n".join(spaced) + "\n"), n=n)
    assert X2.dtype == Z2.dtype == np.int8
    assert np.array_equal(X2, X) and np.array_equal(Z2, Z)

    # A fault in a later chunk names its 1-based trace index; blank lines do not count.
    for at, obj, match in [
        (rows + 5, {"Z": [[9] * k] * T}, f"trace {rows + 6}: values outside 1..8"),
        (2 * rows, {"X": [1] * (T - 1)}, f"trace {2 * rows + 1}: X \\({T - 1},\\)"),
        (2 * rows + 7, {"contained": None}, f"trace {2 * rows + 8}: containment flag None"),
        (2 * rows + 9, {"contained": not traces[2 * rows + 9].contained}, "mismatch"),
    ]:
        bad = list(spaced)
        pos = at + 1 + (at >= rows) + (at >= 2 * rows)  # past the blank lines before it
        bad[pos] = json.dumps({**json.loads(bad[pos]), **obj})
        with pytest.raises(ValidationError, match=match):
            traces_from_jsonl(bad, n=n)

    # Chunks are checked in order: a value out of range in the first chunk is
    # reported before a malformed trace in the second.
    bad = lines[:rows] + ["{}"]
    with pytest.raises(ValidationError, match=f"trace {rows + 1} is not a serialized trace"):
        traces_from_jsonl(bad, n=n)
    bad[3] = json.dumps({**json.loads(bad[3]), "X": [0] * T})
    with pytest.raises(ValidationError, match="trace 4: values outside"):
        traces_from_jsonl(bad, n=n)


def _report_bytes(report):
    return (
        report.n_traces,
        report.cell_pvalues.tobytes(),
        np.array(report.pair_pvalues).tobytes(),
        report.pairs,
        np.array(report.homogeneity_pvalues).tobytes(),
    )


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(2, 6),
    T=st.integers(1, 3),
    k=st.integers(1, 3),
    dtype=st.sampled_from([np.int8, np.uint8, np.int16, np.int32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_verify_marginals_is_the_same_on_compact_arrays(n, T, k, dtype, seed):
    X, Z, _ = _random_traces(n, T, k, MARGINAL_MIN_TRACES, seed)
    wide = verify_marginals(X, Z, n, n_pairs=6, pair_seed=seed)
    compact = verify_marginals(X.astype(dtype), Z.astype(dtype), n, n_pairs=6, pair_seed=seed)
    assert _report_bytes(compact) == _report_bytes(wide)


def _oracle_pairs(T, k, n_pairs, pair_seed):
    # The pair loop as it was before it learned to stop: it drew until the
    # pairs were complete or 10,000 draws were spent.
    gen = RngStream(seed=pair_seed, stream_id=0).generator()
    all_cells = [(t, i) for t in range(T) for i in range(k)]
    pairs = []
    want_cross = n_pairs // 2 if T > 1 else 0
    guard = 0
    while len(all_cells) > 1 and len(pairs) < n_pairs and guard < 10_000:
        guard += 1
        a, b = gen.choice(len(all_cells), size=2, replace=False)
        ca, cb = all_cells[a], all_cells[b]
        pair = (ca, cb) if ca <= cb else (cb, ca)
        if pair in pairs:
            continue
        cross_needed = want_cross - sum(1 for p in pairs if p[0][0] != p[1][0])
        remaining = n_pairs - len(pairs)
        if cross_needed >= remaining and pair[0][0] == pair[1][0]:
            continue
        pairs.append(pair)
    return pairs


@pytest.mark.parametrize("T, k", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (8, 16)])
@pytest.mark.parametrize("n_pairs, pair_seed", [(20, 0), (10, 1), (3, 7)])
def test_pair_sampling_matches_reference(T, k, n_pairs, pair_seed):
    assert coupling._sample_pairs(T, k, n_pairs, pair_seed) == _oracle_pairs(
        T, k, n_pairs, pair_seed
    )


# ---------------------------------------------------------------------------
# Stream equivalence.  The functions below are the reference implementation
# the coupling path must reproduce draw for draw: np.isin membership, a fresh
# UniformOnSet per round, pmf rejection one replica at a time in plain Python,
# and a Python set per containment flag.  Every
# comparison also checks that the generator ends in the same state, so the
# fast path consumes exactly the same draws.


def _oracle_single_round(S, k, gen):
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    n = S.domain.n
    members = np.asarray(S.members)
    y = gen.integers(1, n + 1, size=k)
    z = y.copy()
    hit = np.isin(y, members)
    n_hits = int(hit.sum())
    if n_hits > 0:
        w = members[gen.integers(S.size, size=n_hits)]
        z[hit] = w
        x = int(w[gen.integers(n_hits)])
    else:
        x = int(members[gen.integers(S.size)])
    return x, z


def _oracle_window_rule(domain, sigma):
    n = domain.n
    size = min_support_size(sigma, n)

    def rule(xs):
        start = (len(xs) * size) % n
        members = tuple(sorted(((start + j) % n) + 1 for j in range(size)))
        return UniformOnSet(domain, members)

    return rule


def _oracle_last_value_rule(domain, sigma):
    n = domain.n
    size = min_support_size(sigma, n)

    def rule(xs):
        start = int(xs[-1]) if len(xs) else 1
        members = tuple(sorted(((start - 1 + j) % n) + 1 for j in range(size)))
        return UniformOnSet(domain, members)

    return rule


def _oracle_adaptive(rule, domain, sigma, cfg, gen):
    n = domain.n
    floor = min_support_size(sigma, n)
    past = []
    X = np.empty(cfg.T, dtype=np.int64)
    Z = np.empty((cfg.T, cfg.k), dtype=np.int64)
    flags = np.empty(cfg.T, dtype=bool)
    for t in range(cfg.T):
        S = rule(np.array(past, dtype=np.int64))
        if S.domain != domain:
            raise ValidationError("adversary emitted a set on the wrong domain")
        if S.size < floor:
            raise UndersizedSetError(
                f"round {t + 1}: set size {S.size} below floor {floor} for sigma={sigma}"
            )
        x, z = _oracle_single_round(S, cfg.k, gen)
        X[t] = x
        Z[t] = z
        flags[t] = x in set(int(v) for v in z)
        past.append(x)
    return X, Z, flags


def _oracle_pmf_round(pmf, k, gen):
    # Rejection against the largest mass, one replica at a time in plain Python.
    mass = pmf.mass.tolist()
    top = max(mass)
    z = gen.integers(1, len(mass) + 1, size=k)
    for zi, coin in zip(z.tolist(), gen.random(k).tolist()):
        if coin * top < mass[zi - 1]:
            return zi, z
    u = gen.random()
    cdf = list(itertools.accumulate(mass))
    return next(cell for cell, c in enumerate(cdf, start=1) if c / cdf[-1] > u), z


def _oracle_general(adv, cfg, gen):
    # Checks every round's emission afresh, then couples a set round through
    # _oracle_single_round and a pmf round through _oracle_pmf_round.
    floor = min_support_size(adv.sigma, adv.domain.n)
    past = []
    X = np.empty(cfg.T, dtype=np.int64)
    Z = np.empty((cfg.T, cfg.k), dtype=np.int64)
    flags = np.empty(cfg.T, dtype=bool)
    for t in range(cfg.T):
        emitted = adv.rule(np.array(past, dtype=np.int64))
        if emitted.domain != adv.domain:
            raise ValidationError("adversary emitted a distribution on the wrong domain")
        if isinstance(emitted, SmoothPmf):
            if not validate_smooth(emitted.mass, adv.sigma):
                raise ValidationError(f"round {t + 1}: emitted pmf is not {adv.sigma}-smooth")
            x, z = _oracle_pmf_round(emitted, cfg.k, gen)
        else:
            if emitted.size < floor:
                raise UndersizedSetError(f"round {t + 1}: set size {emitted.size} below floor")
            x, z = _oracle_single_round(emitted, cfg.k, gen)
        X[t] = x
        Z[t] = z
        flags[t] = x in set(int(v) for v in z)
        past.append(x)
    return X, Z, flags


def _oracle_traces_to_jsonl(traces):
    lines = []
    for tr in traces:
        lines.append(
            json.dumps(
                {
                    "X": [int(v) for v in tr.X],
                    "Z": [[int(v) for v in row] for row in tr.Z],
                    "contained": tr.contained,
                }
            )
        )
    return "\n".join(lines) + "\n"


def _assert_same_run(trace, oracle, gen_a, gen_b):
    X, Z, flags = oracle
    assert np.array_equal(trace.X, X)
    assert np.array_equal(trace.Z, Z)
    assert trace.contained_rounds.dtype == bool
    assert np.array_equal(trace.contained_rounds, flags)
    assert gen_a.bit_generator.state == gen_b.bit_generator.state


# (n, sigma, k, T); the set sizes ceil(sigma*n) range from 1 to n.
_GRID = [
    (2, 0.5, 1, 3),
    (4, 0.5, 2, 5),
    (5, 0.2, 3, 6),
    (7, 0.3, 4, 7),
    (8, 0.25, 6, 4),
    (16, 0.25, 16, 8),
    (9, 1.0, 2, 3),
]

_SET_ADVERSARIES = {
    "last-value": (last_value_adversary, _oracle_last_value_rule),
    "window": (window_set_adversary, _oracle_window_rule),
}


@pytest.mark.parametrize("n,sigma,k,T", _GRID)
@pytest.mark.parametrize("name", ["last-value", "window", "stationary", "full-domain"])
def test_adaptive_matches_reference_draw_for_draw(name, n, sigma, k, T):
    dom = FiniteDomain(n)
    if name in _SET_ADVERSARIES:
        factory, oracle_factory = _SET_ADVERSARIES[name]
        adv = factory(dom, sigma)
        oracle_rule = oracle_factory(dom, sigma)
    else:
        # These rules play one set built up front, so the reference loop can call them as is.
        if name == "stationary":
            adv = stationary_set_adversary(dom, tuple(range(1, min_support_size(sigma, n) + 1)))
        else:
            adv = full_domain_adversary(dom)
        oracle_rule = adv.rule
    cfg = CouplingConfig(T=T, k=k)
    for stream in range(6):
        gen_a = RngStream(seed=2300 + n, stream_id=stream).generator()
        gen_b = RngStream(seed=2300 + n, stream_id=stream).generator()
        trace = couple_adaptive(adv, cfg, gen_a)
        oracle = _oracle_adaptive(oracle_rule, dom, adv.sigma, cfg, gen_b)
        _assert_same_run(trace, oracle, gen_a, gen_b)


@pytest.mark.parametrize("n,sigma,k,T", _GRID)
def test_general_matches_reference_draw_for_draw(n, sigma, k, T):
    dom = FiniteDomain(n)
    cfg = CouplingConfig(T=T, k=k)
    for method in ("mixture", "capped"):
        pmfs = [
            random_smooth_pmf(
                dom, sigma, RngStream(seed=2400 + n, stream_id=j).generator(), method=method
            )
            for j in range(3)
        ]
        # Stationary, and adaptive: the pmf played depends on the last realized value.
        adversaries = [
            stationary_pmf_adversary(pmfs[0]),
            SmoothAdversary(
                dom, sigma, lambda xs: pmfs[xs[-1] % 3 if len(xs) else 0], "chase"
            ),
        ]
        for adv in adversaries:
            for stream in range(4):
                gen_a = RngStream(seed=2500 + n, stream_id=stream).generator()
                gen_b = RngStream(seed=2500 + n, stream_id=stream).generator()
                trace = couple_adaptive(adv, cfg, gen_a)
                _assert_same_run(trace, _oracle_general(adv, cfg, gen_b), gen_a, gen_b)


@pytest.mark.parametrize("n,sigma,k,T", _GRID)
def test_mixed_set_and_pmf_rounds_match_reference_draw_for_draw(n, sigma, k, T):
    dom = FiniteDomain(n)
    cfg = CouplingConfig(T=T, k=k)
    chase = last_value_adversary(dom, sigma).rule
    # The uniform pmf accepts every replica, so its rounds never draw the fallback.
    pmfs = [SmoothPmf(dom, np.full(n, 1.0 / n), sigma=1.0)] + [
        random_smooth_pmf(dom, sigma, RngStream(seed=2600 + n, stream_id=j).generator())
        for j in range(2)
    ]

    def rule(xs):
        if len(xs) % 2 == 0:
            return chase(xs)
        return pmfs[xs[-1] % 3]

    adv = SmoothAdversary(dom, sigma, rule, name="mixed")
    for stream in range(4):
        gen_a = RngStream(seed=2700 + n, stream_id=stream).generator()
        gen_b = RngStream(seed=2700 + n, stream_id=stream).generator()
        trace = couple_adaptive(adv, cfg, gen_a)
        _assert_same_run(trace, _oracle_general(adv, cfg, gen_b), gen_a, gen_b)


@pytest.mark.parametrize("n,sigma,k", [(7, 0.3, 4), (16, 0.25, 16)])
def test_round_that_raises_leaves_the_generator_as_numpy_would(n, sigma, k):
    # Rounds 1 and 2 play valid sets; round 3's set is one element short.
    dom = FiniteDomain(n)
    chase = last_value_adversary(dom, sigma).rule
    short = UniformOnSet(dom, tuple(range(1, min_support_size(sigma, n))))

    def rule(xs):
        return chase(xs) if len(xs) < 2 else short

    adv = SmoothAdversary(dom, sigma, rule, name="short-in-round-3")
    cfg = CouplingConfig(T=5, k=k)
    for stream in range(4):
        gen_a = RngStream(seed=2800 + n, stream_id=stream).generator()
        gen_b = RngStream(seed=2800 + n, stream_id=stream).generator()
        with pytest.raises(UndersizedSetError, match="round 3"):
            couple_adaptive(adv, cfg, gen_a)
        with pytest.raises(UndersizedSetError, match="round 3"):
            _oracle_adaptive(rule, dom, sigma, cfg, gen_b)
        assert gen_a.bit_generator.state == gen_b.bit_generator.state


def test_adaptive_refuses_a_generator_it_cannot_replay():
    adv = last_value_adversary(FiniteDomain(4), 0.5)
    gen = np.random.Generator(np.random.MT19937(7))
    with pytest.raises(ValidationError, match="PCG64"):
        couple_adaptive(adv, CouplingConfig(T=2, k=2), gen)


def test_numpy_integer_sizes_couple_like_python_ints():
    # FiniteDomain and CouplingConfig take numpy integers as well.
    cfg, np_cfg = CouplingConfig(T=4, k=6), CouplingConfig(T=np.int64(4), k=np.int64(6))
    for n in (7, 16):
        gen_a, gen_b = RngStream(seed=31).generator(), RngStream(seed=31).generator()
        a = couple_adaptive(last_value_adversary(FiniteDomain(n), 0.3), cfg, gen_a)
        b = couple_adaptive(last_value_adversary(FiniteDomain(np.int64(n)), 0.3), np_cfg, gen_b)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Z, b.Z)
        assert gen_a.bit_generator.state == gen_b.bit_generator.state


def test_trace_arrays_are_int64():
    adv = window_set_adversary(FiniteDomain(7), 0.3)
    trace = couple_adaptive(adv, CouplingConfig(T=3, k=4), RngStream(seed=9).generator())
    assert trace.X.dtype == trace.Z.dtype == np.int64
    assert trace.Z.shape == (3, 4)
    assert trace.contained_rounds.dtype == bool


def test_checked_memo_holds_fresh_pmfs_and_still_rejects_a_rough_one():
    # A rule that builds a new pmf every round frees the earlier ones, and
    # CPython reuses their ids; the memo holds each checked pmf, so a rough pmf
    # cannot take a checked one's id and skip its check.
    dom = FiniteDomain(6)
    supports = [(1, 2, 3), (4, 5, 6), (2, 3, 4), (1, 5, 6), (3, 4, 5)]
    rough = np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])

    def rule(xs):
        if len(xs) == 299:
            return SmoothPmf(dom, rough, sigma=0.25)
        mass = np.zeros(6)
        mass[np.array(supports[len(xs) % 5]) - 1] = 1 / 3
        return SmoothPmf(dom, mass, sigma=0.5)

    adv = SmoothAdversary(dom, 0.5, rule, name="fresh")
    for stream in range(4):
        tr = couple_adaptive(adv, CouplingConfig(T=299, k=2), RngStream(221, stream).generator())
        assert all(x in supports[t % 5] for t, x in enumerate(tr.X.tolist()))
        with pytest.raises(ValidationError, match="round 300: emitted pmf is not 0.5-smooth"):
            couple_adaptive(adv, CouplingConfig(T=300, k=2), RngStream(221, stream).generator())


@pytest.mark.parametrize(
    "emitted",
    [
        UniformOnSet(FiniteDomain(5), (1, 2, 3)),
        SmoothPmf(FiniteDomain(5), np.full(5, 0.2), sigma=1.0),
    ],
    ids=["set", "pmf"],
)
def test_adaptive_rejects_wrong_domain(emitted):
    adv = SmoothAdversary(FiniteDomain(4), 0.5, lambda xs: emitted, name="elsewhere")
    with pytest.raises(ValidationError, match="wrong domain"):
        couple_adaptive(adv, CouplingConfig(T=1, k=2), RngStream(seed=219).generator())


def test_adaptive_rejects_other_emitted_types():
    dom = FiniteDomain(4)
    adv = SmoothAdversary(dom, 0.5, lambda xs: (1, 2), name="tuple")
    with pytest.raises(ValidationError, match="not a UniformOnSet or SmoothPmf"):
        couple_adaptive(adv, CouplingConfig(T=1, k=2), RngStream(seed=220).generator())


def test_rule_that_writes_into_the_history_raises():
    dom = FiniteDomain(4)
    full = UniformOnSet(dom, (1, 2, 3, 4))

    def scribble(xs):
        if len(xs):
            xs[0] = 1
        return full

    adv = SmoothAdversary(dom, 1.0, scribble, name="scribble")
    with pytest.raises(ValueError, match="read-only"):
        couple_adaptive(adv, CouplingConfig(T=3, k=2), RngStream(seed=221).generator())


def test_enumeration_rejects_pmf_rules():
    pmf = SmoothPmf(FiniteDomain(2), np.full(2, 0.5), sigma=1.0)
    with pytest.raises(ValidationError, match="emits sets"):
        enumerate_containment_probability(stationary_pmf_adversary(pmf), CouplingConfig(T=1, k=1))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 40),
    data=st.data(),
    k=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_single_round_matches_reference(n, data, k, seed):
    members = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1))))
    S = UniformOnSet(FiniteDomain(n), members)
    gen_a = RngStream(seed=seed).generator()
    gen_b = RngStream(seed=seed).generator()
    with DrawReplay(gen_a) as draws:
        for _ in range(3):
            x, z = couple_single_round(S, k, draws)
            x_ref, z_ref = _oracle_single_round(S, k, gen_b)
            assert x == x_ref
            assert np.array_equal(z, z_ref)
            assert all(type(v) is int for v in [x, *z])
    assert gen_a.bit_generator.state == gen_b.bit_generator.state


def test_window_adversaries_emit_reference_sets():
    for n, sigma in ((1, 1.0), (2, 0.5), (7, 0.3), (16, 0.25), (10, 0.95)):
        dom = FiniteDomain(n)
        for name, (factory, oracle_factory) in _SET_ADVERSARIES.items():
            rule = factory(dom, sigma).rule
            oracle_rule = oracle_factory(dom, sigma)
            prefixes = [np.empty(0, dtype=np.int64)] + [
                np.full(r, v, dtype=np.int64) for v in range(1, n + 1) for r in (1, 3)
            ]
            for xs in prefixes:
                assert rule(xs) == oracle_rule(xs), (name, n, sigma, xs)


def test_trace_jsonl_bytes_match_reference():
    dom = FiniteDomain(8)
    adv = last_value_adversary(dom, 0.25)
    traces = [
        couple_adaptive(adv, CouplingConfig(T=4, k=6), RngStream(215, i).generator())
        for i in range(40)
    ]
    assert not all(tr.contained for tr in traces)
    text = traces_to_jsonl(traces)
    assert text == _oracle_traces_to_jsonl(traces)
    X, Z = traces_from_jsonl(text.splitlines(), n=8)
    assert np.array_equal(X, np.stack([tr.X for tr in traces]))
    assert np.array_equal(Z, np.stack([tr.Z for tr in traces]))
    restored = []
    for tr, x_row, z_rows in zip(traces, X, Z):
        expected = [x in set(int(v) for v in row) for x, row in zip(x_row, z_rows)]
        assert tr.contained_rounds.tolist() == expected
        restored.append(CouplingTrace(8, x_row, z_rows, np.array(expected)))
    assert traces_to_jsonl(restored) == text


def test_trace_jsonl_rejects_flag_mismatch():
    dom = FiniteDomain(4)
    tr = couple_adaptive(
        full_domain_adversary(dom), CouplingConfig(T=2, k=2), RngStream(216).generator()
    )
    obj = json.loads(traces_to_jsonl([tr]))
    obj["contained"] = not obj["contained"]
    with pytest.raises(ValidationError, match="mismatch"):
        traces_from_jsonl([json.dumps(obj)], n=4)


_GOOD_TRACE = {"X": [1, 2], "Z": [[1, 3], [2, 2]], "contained": True}


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"Z": [[1, 3], [2, 5]]}, "trace 2: values outside 1..4"),
        ({"X": [0, 2], "contained": False}, "trace 2: values outside 1..4"),
        ({"X": [1, 2, 3], "Z": [[1, 3], [2, 2], [3, 3]]}, "trace 2: X \\(3,\\)"),
        ({"X": [1], "Z": [[1, 3]]}, "trace 2: X \\(1,\\)"),
        ({"Z": [[1, 3, 4], [2, 2, 4]]}, "trace 2: .* not integer arrays of the first"),
        ({"Z": [[1, 3], [2]]}, "trace 2 is not a serialized trace"),
        ({"X": [1.5, 2]}, "trace 2: X \\(2,\\) and Z \\(2, 2\\) are not integer arrays"),
        ({"X": None}, "trace 2"),
    ],
)
def test_trace_jsonl_rejects_malformed_traces(bad, match):
    text = "".join(json.dumps(obj) + "\n" for obj in (_GOOD_TRACE, {**_GOOD_TRACE, **bad}))
    with pytest.raises(ValidationError, match=match):
        traces_from_jsonl(text.splitlines(), n=4)


@pytest.mark.parametrize("flag", ["no", 1, [1, 2]])
def test_trace_jsonl_rejects_non_bool_flags(flag):
    # Each value is truthy, as the true flag of this trace is.
    bad = {**_GOOD_TRACE, "contained": flag}
    text = "".join(json.dumps(obj) + "\n" for obj in (_GOOD_TRACE, bad))
    with pytest.raises(ValidationError, match="trace 2: containment flag .* is not a JSON bool"):
        traces_from_jsonl(text.splitlines(), n=4)


def test_trace_jsonl_skips_blank_lines_and_checks_the_first_trace():
    X, Z = traces_from_jsonl(io.StringIO("\n" + json.dumps(_GOOD_TRACE) + "\n\n"), n=4)
    assert X.tolist() == [[1, 2]]
    assert Z.tolist() == [[[1, 3], [2, 2]]]
    with pytest.raises(ValidationError, match="no serialized traces"):
        traces_from_jsonl(["\n"], n=4)
    with pytest.raises(ValidationError, match="trace 1 is not a serialized trace"):
        traces_from_jsonl([json.dumps({**_GOOD_TRACE, "Z": [1, 3]})], n=4)


def _parsed_or_error(lines, n):
    try:
        return traces_from_jsonl(lines, n)
    except ValidationError as exc:
        return str(exc)


def _parsed_by_json_alone(lines, n):
    with mock.patch.object(coupling, "_canonical_chunk", lambda *args: None):
        return _parsed_or_error(lines, n)


def _assert_same_parse(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _perturbed(line, kind, n, at, place):
    """``line`` with one change of the named kind; ``at`` picks the number it
    touches and ``place`` where "digits moved" puts it."""
    numbers = list(re.finditer(r"\d+", line))
    m = numbers[at % len(numbers)]

    def put(s):
        return line[: m.start()] + s + line[m.end() :]

    if kind == "key order":
        obj = json.loads(line)
        return json.dumps({"Z": obj["Z"], "contained": obj["contained"], "X": obj["X"]})
    if kind == "flag":
        return line.replace("true", "false") if "true" in line else line.replace("false", "true")
    if kind == "digits moved":
        # Out of their slot, which is left empty, to a place no number goes:
        # the line's start or end, the "X" key, before a "[" or after a "]".
        rest = put("")
        place = [0, len(rest), 3, rest.index("["), rest.index("]") + 1][place]
        return rest[:place] + m.group() + rest[place:]
    return {
        "none": line,
        "extra space": put(" " + m.group()),
        "crlf": line + "\r",
        "leading zero": put("0" + m.group()),
        "zero": put("0"),
        "minus": put("-" + m.group()),
        "1.5": put("1.5"),
        "1e2": put("1e2"),
        "20 digits": put("1" + "0" * 19),
        "above n": put(str(n + 1)),
        "non-ascii": put(m.group() + "\u00e9"),
    }[kind]


_PERTURBATIONS = [
    "none", "extra space", "key order", "crlf", "leading zero", "zero", "minus", "1.5",
    "1e2", "20 digits", "above n", "non-ascii", "flag", "digits moved",
]  # fmt: skip


@pytest.mark.parametrize("kind", _PERTURBATIONS)
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(1, 6), st.integers(1, 6), st.booleans(), st.data())
def test_canonical_decoder_matches_json_decoder(kind, n, T, k, keepends, data):
    # Random traces as traces_to_jsonl writes them, one line changed.  The
    # canonical decoder must take the unchanged text, refuse every change, and
    # traces_from_jsonl must give what the json.loads decoder alone gives:
    # the same arrays or the same ValidationError.
    N = data.draw(st.integers(1, 4))
    size = N * T * (k + 1)
    cells = data.draw(st.lists(st.integers(1, n), min_size=size, max_size=size))
    values = np.array(cells).reshape(N, T * (k + 1))
    X, Z = values[:, :T], values[:, T:].reshape(N, T, k)
    if data.draw(st.booleans()):
        Z[:, :, 0] = X  # every trace contained
    traces = [CouplingTrace(n, x, z, (z == x[:, None]).any(axis=1)) for x, z in zip(X, Z)]
    lines = traces_to_jsonl(traces).splitlines(keepends=keepends)
    i = data.draw(st.integers(0, N - 1))
    at, place = data.draw(st.integers(0, 10_000)), data.draw(st.integers(0, 4))
    lines[i] = _perturbed(lines[i].rstrip("\n"), kind, n, at, place)
    lines[i] += "\n" if keepends else ""

    accepted = coupling._canonical_chunk(lines, n, (T, k))
    assert (accepted is not None) == (kind == "none")
    want = _parsed_by_json_alone(lines, n)
    _assert_same_parse(_parsed_or_error(lines, n), want)
    if kind == "none":
        assert np.array_equal(want[0], X) and np.array_equal(want[1], Z)
        assert np.array_equal(accepted[0], X) and np.array_equal(accepted[1], Z)


def test_harness_trace_file_needs_one_json_loads(tmp_path, monkeypatch):
    # 1,200 traces of 136 cells: five chunks, all parsed without JSON after
    # the first trace's shapes.
    from smoothlab.harness import make_config, run_experiment

    params = {"n": 16, "sigma": 0.25, "T": 8, "k": 16, "adversary": "last-value"}
    run_experiment(make_config("coupling", params, 1200, 3), tmp_path, parallelism=1)
    path = tmp_path / "traces.jsonl"
    with path.open() as lines:
        want = _parsed_by_json_alone(lines, 16)
    loads, calls = json.loads, []

    def counting_loads(s, *args, **kwargs):
        calls.append(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(coupling.json, "loads", counting_loads)
    with path.open() as lines:
        got = traces_from_jsonl(lines, 16)
    assert len(calls) <= 1
    _assert_same_parse(got, want)
    assert got[0].shape == (1200, 8)


def test_member_set_is_cached_and_outside_equality():
    S = UniformOnSet(FiniteDomain(6), (2, 5))
    assert S.member_set == frozenset({2, 5})
    assert S.member_set is S.member_set
    # The cached members do not take part in equality or hashing.
    fresh = UniformOnSet(FiniteDomain(6), (2, 5))
    assert fresh == S and hash(fresh) == hash(S)
