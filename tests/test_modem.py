"""QAM mapping and max-log demapping."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decodex.phy import ChannelConfig, LLR_QUANT_GAIN, demap_llr, modulate, transmit
from decodex.phy.modem import _axis_levels, _symbol_bits, constellation
from helpers import full_search_demap


def test_qpsk_reference_points():
    s = modulate(np.array([0, 0]), 2)
    assert np.isclose(s[0], (1 + 1j) / math.sqrt(2))
    s = modulate(np.array([1, 1]), 2)
    assert np.isclose(s[0], (-1 - 1j) / math.sqrt(2))
    s = modulate(np.array([0, 1]), 2)
    assert np.isclose(s[0], (1 - 1j) / math.sqrt(2))


def test_16qam_reference_points():
    assert np.isclose(modulate(np.array([0, 0, 0, 0]), 4)[0], (1 + 1j) / math.sqrt(10))
    assert np.isclose(modulate(np.array([0, 0, 1, 1]), 4)[0], (3 + 3j) / math.sqrt(10))
    assert np.isclose(modulate(np.array([1, 0, 1, 0]), 4)[0], (-3 + 1j) / math.sqrt(10))


@pytest.mark.parametrize("qm", [2, 4, 6, 8])
def test_unit_average_energy(qm):
    pts = constellation(qm)
    assert len(np.unique(np.round(pts, 9))) == 2 ** qm
    assert math.isclose(float(np.mean(np.abs(pts) ** 2)), 1.0, rel_tol=1e-12)


def test_unsupported_order_rejected():
    with pytest.raises(ValueError):
        modulate(np.array([0, 1]), 3)


def test_bits_padded_to_symbol_multiple():
    assert modulate(np.array([0, 1, 0]), 2).size == 2
    assert modulate(np.array([1]), 6).size == 1


def test_clean_symbol_saturates_at_high_confidence():
    llr = demap_llr(modulate(np.array([0, 0]), 2), 2, 1e-3)
    assert np.all(llr == 127)


def test_qpsk_analytic_max_log():
    """LLR(b0) = 2*sqrt(2)*Re(y)/sigma2 (then gain + rounding)."""
    rng = np.random.default_rng(3)
    y = rng.normal(size=20) * 0.4 + 1j * rng.normal(size=20) * 0.4
    sigma2 = 0.7
    llr = demap_llr(y, 2, sigma2).reshape(-1, 2)
    expect_i = 2 * math.sqrt(2) * y.real / sigma2 * LLR_QUANT_GAIN
    expect_q = 2 * math.sqrt(2) * y.imag / sigma2 * LLR_QUANT_GAIN
    assert np.all(np.abs(llr[:, 0] - np.clip(np.rint(expect_i), -127, 127)) <= 1)
    assert np.all(np.abs(llr[:, 1] - np.clip(np.rint(expect_q), -127, 127)) <= 1)


def test_positive_llr_means_bit_zero():
    bits = np.array([0, 1])
    llr = demap_llr(modulate(bits, 2), 2, 0.5)
    assert llr[0] > 0 and llr[1] < 0


@pytest.mark.parametrize("qm", [2, 4, 6])
def test_hard_decisions_match_at_30db(qm):
    rng = np.random.default_rng(41)
    bits = rng.integers(0, 2, qm * 20_000, dtype=np.uint8)
    rx = transmit(modulate(bits, qm), ChannelConfig(30.0, 4242))
    llr = demap_llr(rx, qm, 10 ** (-3.0))
    assert np.array_equal((llr < 0).astype(np.uint8), bits)


def test_qpsk_monte_carlo_hard_decisions():
    rng = np.random.default_rng(99)
    bits = rng.integers(0, 2, 2 * 10 ** 5, dtype=np.uint8)
    rx = transmit(modulate(bits, 2), ChannelConfig(30.0, 7))
    llr = demap_llr(rx, 2, 10 ** (-3.0))
    assert np.array_equal((llr < 0).astype(np.uint8), bits)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([2, 4, 6, 8]))
def test_demap_inverts_modulate_noise_free(word, qm):
    bits = np.array([(word >> i) & 1 for i in range(qm)], dtype=np.uint8)
    llr = demap_llr(modulate(bits, qm), qm, 0.05)
    assert np.array_equal((llr < 0).astype(np.uint8), bits)


def test_sigma2_must_be_positive():
    with pytest.raises(ValueError):
        demap_llr(np.array([1 + 1j]), 2, 0.0)


@pytest.mark.parametrize("qm", [2, 4])
def test_nan_sigma2_is_an_error(qm):
    """NaN passes a sigma2 <= 0 check and gave all-zero LLRs; QPSK and
    16QAM alike reject it."""
    with pytest.raises(ValueError, match="sigma2 must be positive"):
        demap_llr(np.array([1 + 1j]), qm, math.nan)


def _hard_coordinates(levels):
    """One axis's coordinate: on a level, on a decision boundary (midway
    between levels, or 0), next to either, far out, or plain."""
    ordered = np.sort(levels)
    special = [float(v) for v in (*ordered, *(ordered[1:] + ordered[:-1]) / 2, 0.0)]
    return st.one_of(
        st.sampled_from(special),
        st.tuples(st.sampled_from(special), st.floats(-1e-12, 1e-12)).map(sum),
        st.floats(-1e150, 1e150),
        st.floats(-2.0, 2.0),
    )


def _hard_symbols(qm, max_size=64):
    levels = _axis_levels(qm)
    symbol = st.builds(complex, _hard_coordinates(levels[0]), _hard_coordinates(levels[1]))
    return st.tuples(st.just(qm), st.lists(symbol, max_size=max_size))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 4, 6, 8]).flatmap(_hard_symbols),
       st.one_of(st.sampled_from([5e-324, 1e-300, 1e300]), st.floats(5e-324, 1e300)))
def test_per_axis_demap_equals_the_full_search(case, sigma2):
    """The int8 LLRs equal the full search's over all 2^qm points: on
    boundaries, at |y| up to 1e150, and at sigma2 from the smallest double
    to 1e300."""
    qm, symbols = case
    symbols = np.array(symbols)
    # The tiniest sigma2 scales to inf, which saturates, or 0 * inf on a boundary
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = demap_llr(symbols, qm, sigma2), full_search_demap(symbols, qm, sigma2)
    assert np.array_equal(got, want)


def test_far_off_axis_symbol_keeps_its_on_level_bit():
    """Re(y) sits on QPSK's bit-1 level, so bit 0's LLR saturates at -127.
    A complex |y - s|^2 rounds both distances, each near 7.7e7, to one
    float and gave 0."""
    y = np.array([-0.7071067811865475 + 77490643j])
    with np.errstate(over="ignore"):  # gain / 5e-324 is inf
        assert demap_llr(y, 2, 5e-324).tolist() == [-127, 127]


def _exact_max_log(d2, is1):
    """The min of d2 over the bit-1 points minus the min over the bit-0 points."""
    return (min(d for d, one in zip(d2, is1) if one)
            - min(d for d, one in zip(d2, is1) if not one))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 6, 8]).flatmap(lambda qm: _hard_symbols(qm, max_size=4)))
def test_other_axis_cancels_exactly(case):
    """In exact arithmetic, the 2-D max-log over all 2^qm points (with
    dx^2 + dy^2) equals the per-axis one (bit j's axis alone) for every bit,
    so demap_llr's search drops nothing."""
    qm, symbols = case
    pts = [(Fraction(s.real), Fraction(s.imag)) for s in constellation(qm)]
    is1 = _symbol_bits(qm).T.tolist()
    for y in symbols:
        dx = [(Fraction(y.real) - px) ** 2 for px, _ in pts]
        dy = [(Fraction(y.imag) - py) ** 2 for _, py in pts]
        d2 = [a + b for a, b in zip(dx, dy)]
        for j in range(qm):
            on_axis = dx if j % 2 == 0 else dy
            assert _exact_max_log(d2, is1[j]) == _exact_max_log(on_axis, is1[j])
