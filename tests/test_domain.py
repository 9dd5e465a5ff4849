"""Tests for smooth pmfs, mixture decomposition, and RNG streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab.domain import (
    REPLAY_BLOCK_WORDS,
    DecompositionError,
    DrawReplay,
    FiniteDomain,
    MixtureOfUniforms,
    RngStream,
    SmoothPmf,
    UniformOnSet,
    ValidationError,
    decompose_smooth,
    min_support_size,
    random_smooth_pmf,
    validate_smooth,
)


def test_validate_uniform_is_smooth_at_sigma_one():
    assert validate_smooth([0.25, 0.25, 0.25, 0.25], sigma=1.0) is True


def test_validate_point_mass_fails_at_half_smoothness():
    assert validate_smooth([1.0, 0.0, 0.0, 0.0], sigma=0.5) is False


def test_validate_two_point_mass_passes_at_half_smoothness():
    assert validate_smooth([0.5, 0.5, 0.0, 0.0], sigma=0.5) is True


def test_validate_sum_tolerance():
    # sigma = 0.5 leaves cap headroom, isolating the sum-to-one check.
    assert validate_smooth([0.25, 0.25, 0.25, 0.25 + 2e-9], sigma=0.5) is False
    assert validate_smooth([0.25, 0.25, 0.25, 0.25 + 2e-10], sigma=0.5) is True


def test_smooth_pmf_errors_print_plain_floats():
    # Under numpy 2 the repr of a numpy scalar reads np.float64(...).
    dom = FiniteDomain(4)
    with pytest.raises(ValidationError, match=r"got 0\.5$") as bad_sum:
        SmoothPmf(dom, np.array([0.25, 0.25, 0.0, 0.0]), sigma=1.0)
    with pytest.raises(ValidationError, match=r"^max mass 0\.5 exceeds") as bad_cap:
        SmoothPmf(dom, np.array([0.5, 0.5, 0.0, 0.0]), sigma=0.9)
    for err in (bad_sum, bad_cap):
        assert "np.float64" not in str(err.value)


def test_validate_rejects_nan_and_negative():
    with pytest.raises(ValidationError):
        validate_smooth([0.5, float("nan"), 0.25, 0.25], sigma=1.0)
    with pytest.raises(ValidationError):
        validate_smooth([0.5, -0.5, 0.5, 0.5], sigma=1.0)
    with pytest.raises(ValidationError):
        validate_smooth([0.5, 0.5], sigma=0.0)
    with pytest.raises(ValidationError):
        validate_smooth([0.5, 0.5], sigma=1.5)


def test_min_support_size_resists_float_noise():
    # 0.2 * 5 = 1.0000000000000002 in binary floating point.
    assert min_support_size(0.2, 5) == 1
    assert min_support_size(0.1, 64) == 7
    assert min_support_size(0.25, 8) == 2
    assert min_support_size(1.0, 4) == 4


def test_decompose_uniform_single_component():
    dom = FiniteDomain(4)
    pmf = SmoothPmf(dom, np.full(4, 0.25), sigma=1.0)
    mix = decompose_smooth(pmf)
    assert len(mix.components) == 1
    weight, comp = mix.components[0]
    assert weight == pytest.approx(1.0, abs=1e-15)
    assert comp.members == (1, 2, 3, 4)


def test_decompose_two_point_mass():
    dom = FiniteDomain(4)
    pmf = SmoothPmf(dom, np.array([0.5, 0.5, 0.0, 0.0]), sigma=0.5)
    mix = decompose_smooth(pmf)
    assert len(mix.components) == 1
    weight, comp = mix.components[0]
    assert weight == pytest.approx(1.0, abs=1e-15)
    assert comp.members == (1, 2)


def test_decompose_uniform_with_ties_does_not_stall():
    # All residuals equal; the peel weight must stay positive.
    dom = FiniteDomain(4)
    pmf = SmoothPmf(dom, np.full(4, 0.25), sigma=0.5)
    mix = decompose_smooth(pmf)
    err = np.abs(mix.mass_vector() - pmf.mass).sum()
    assert err <= 1e-9
    assert all(comp.size >= 2 for _, comp in mix.components)


def test_decompose_reconstruction_property():
    # Randomized reconstruction across the full grid of domain sizes and
    # smoothness levels, both generator styles.
    grid_n = [2, 4, 8, 16, 64]
    grid_sigma = [1.0, 0.5, 0.25, 0.1]
    gen = RngStream(seed=1301, stream_id=0).generator()
    cases = 0
    for n in grid_n:
        dom = FiniteDomain(n)
        for sigma in grid_sigma:
            floor = min_support_size(sigma, n)
            for method in ("mixture", "capped"):
                for _ in range(10):
                    pmf = random_smooth_pmf(dom, sigma, gen, method=method)
                    mix = decompose_smooth(pmf)
                    err = float(np.abs(mix.mass_vector() - pmf.mass).sum())
                    assert err <= 1e-9
                    assert len(mix.components) <= n * n
                    for w, comp in mix.components:
                        assert comp.size >= floor
                        assert validate_smooth(comp.mass_vector(), sigma)
                    cases += 1
    assert cases == len(grid_n) * len(grid_sigma) * 2 * 10


def test_decompose_rejects_unrepresentable_fractional_case():
    # sigma*n = 1.6 allows point masses up to 0.625, but mixtures of uniforms
    # on >= 2 elements cap them at 0.5.
    dom = FiniteDomain(16)
    mass = np.full(16, 0.4 / 15)
    mass[0] = 0.6
    assert validate_smooth(mass, 0.1) is True
    pmf = SmoothPmf(dom, mass, sigma=0.1)
    with pytest.raises(DecompositionError):
        decompose_smooth(pmf)


def test_smooth_pmf_constructor_rejects_non_smooth_input():
    dom = FiniteDomain(4)
    pmf = SmoothPmf(dom, np.array([0.5, 0.5, 0.0, 0.0]), sigma=0.5)
    hacked = SmoothPmf(dom, np.array([0.25, 0.25, 0.25, 0.25]), sigma=1.0)
    assert decompose_smooth(pmf) is not None
    assert decompose_smooth(hacked) is not None
    bad = np.array([0.6, 0.4, 0.0, 0.0])
    with pytest.raises(ValidationError):
        SmoothPmf(dom, bad, sigma=0.5)


def test_uniform_on_set_validation():
    dom = FiniteDomain(4)
    s = UniformOnSet(dom, (1, 3))
    assert s.size == 2
    assert np.allclose(s.mass_vector(), [0.5, 0.0, 0.5, 0.0])
    with pytest.raises(ValidationError):
        UniformOnSet(dom, ())
    with pytest.raises(ValidationError):
        UniformOnSet(dom, (2, 1))
    with pytest.raises(ValidationError):
        UniformOnSet(dom, (1, 1))
    with pytest.raises(ValidationError):
        UniformOnSet(dom, (0, 1))
    with pytest.raises(ValidationError):
        UniformOnSet(dom, (3, 5))


def test_mixture_validation():
    dom = FiniteDomain(4)
    good = MixtureOfUniforms(
        dom,
        ((0.5, UniformOnSet(dom, (1, 2))), (0.5, UniformOnSet(dom, (3, 4)))),
        sigma=0.5,
    )
    assert np.allclose(good.mass_vector(), 0.25)
    with pytest.raises(ValidationError):
        MixtureOfUniforms(dom, ((1.0, UniformOnSet(dom, (1,))),), sigma=0.5)
    with pytest.raises(ValidationError):
        MixtureOfUniforms(
            dom,
            ((0.6, UniformOnSet(dom, (1, 2))), (0.6, UniformOnSet(dom, (3, 4)))),
            sigma=0.5,
        )


def test_rng_stream_reproducibility_and_independence():
    a = RngStream(seed=42, stream_id=0).generator().random(8)
    b = RngStream(seed=42, stream_id=0).generator().random(8)
    c = RngStream(seed=42, stream_id=1).generator().random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValidationError):
        RngStream(seed=-1)
    sub = RngStream(seed=42, stream_id=0).substream(2)
    sub_again = RngStream(seed=42, stream_id=0).substream(2)
    assert sub == sub_again
    assert sub != RngStream(seed=42, stream_id=0).substream(3)


# Ranges 1 .. 2^32 - 1; 3 * 2^30 rejects a quarter of its draws and 2^31 + 1
# almost half, so the Lemire loop redraws often.
_REPLAY_RANGES = st.one_of(
    st.sampled_from([1, 2, 3, 7, 16, 3 * 2**30, 2**31 + 1, 2**32 - 1]),
    st.integers(1, 2**32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    start=st.sampled_from(["fresh", "pending", "stale"]),
    calls=st.lists(
        st.tuples(st.booleans(), _REPLAY_RANGES, st.integers(-3, 3), st.integers(0, 300)),
        max_size=8,
    ),
    words=st.sampled_from([1, 16, 100, REPLAY_BLOCK_WORDS]),
)
def test_replay_matches_the_generator_draw_for_draw(seed, start, calls, words):
    gen = RngStream(seed).generator()
    twin = RngStream(seed).generator()
    for g in (gen, twin):
        if start == "pending":  # the low half is drawn, the high half waits
            g.integers(5, size=1)
        elif start == "stale":  # both halves drawn; uinteger keeps the high one
            g.integers(5, size=2)
    assert gen.bit_generator.state["has_uint32"] == (start == "pending")
    with DrawReplay(gen, words) as draws:
        for is_random, r, low, size in calls:
            if is_random:
                got, want = draws.random(size), twin.random(size).tolist()
                assert [v.hex() for v in got] == [v.hex() for v in want]
            else:
                got = draws.integers(low, low + r, size)
                assert got == twin.integers(low, low + r, size=size).tolist()
    assert gen.bit_generator.state == twin.bit_generator.state


def test_replay_reads_at_most_one_block_ahead():
    gen = RngStream(seed=3).generator()
    twin = RngStream(seed=3).generator()
    with DrawReplay(gen, words=2 * REPLAY_BLOCK_WORDS) as draws:
        draws.integers(0, 2, 1)
        twin.bit_generator.advance(REPLAY_BLOCK_WORDS)
        assert gen.bit_generator.state["state"] == twin.bit_generator.state["state"]
        # 1 + 3 * REPLAY_BLOCK_WORDS halves span two blocks, read one at a time.
        draws.integers(0, 16, 3 * REPLAY_BLOCK_WORDS)
        twin.bit_generator.advance(REPLAY_BLOCK_WORDS)
        assert gen.bit_generator.state["state"] == twin.bit_generator.state["state"]
        # Words already drawn are dropped as new ones are read: what is held
        # is one block plus what was left of the last (at most 1.5 blocks).
        for _ in range(20):
            draws.random(REPLAY_BLOCK_WORDS)
        assert len(draws._halves) <= 3 * REPLAY_BLOCK_WORDS + 2


def test_replay_redraws_a_long_rejecting_fill_across_blocks():
    # At r = 2^31 + 1 almost half the draws are rejected, so the shortfall is
    # redrawn over and over, each time past the end of a 16-word block.
    gen = RngStream(seed=11).generator()
    twin = RngStream(seed=11).generator()
    r = 2**31 + 1
    with DrawReplay(gen, words=16) as draws:
        assert draws.integers(-5, r - 5, 50_000) == twin.integers(-5, r - 5, size=50_000).tolist()
    assert gen.bit_generator.state == twin.bit_generator.state


def test_replay_empty_fills_keep_a_pending_half():
    gen = RngStream(seed=12).generator()
    twin = RngStream(seed=12).generator()
    for g in (gen, twin):
        g.integers(5, size=1)
    assert gen.bit_generator.state["has_uint32"] == 1
    with DrawReplay(gen) as draws:
        assert draws.integers(0, 7, 0) == twin.integers(0, 7, size=0).tolist() == []
        assert draws.random(0) == twin.random(0).tolist() == []
    assert gen.bit_generator.state == twin.bit_generator.state
    assert gen.integers(0, 7, size=3).tolist() == twin.integers(0, 7, size=3).tolist()


def test_replay_refuses_other_generators_and_ranges():
    with pytest.raises(ValidationError, match="MT19937"):
        DrawReplay(np.random.Generator(np.random.MT19937(1)))
    draws = DrawReplay(RngStream(seed=4).generator())
    for low, high in ((0, 2**32), (5, 5), (3, 1)):
        with pytest.raises(ValidationError, match="high - low"):
            draws.integers(low, high, 1)
    with pytest.raises(ValidationError, match="size"):
        draws.integers(0, 4, -1)
    with pytest.raises(ValidationError, match="size"):
        draws.random(-1)
