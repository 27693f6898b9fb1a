"""CRC24 A/B against an independent bit-serial long-division oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decodex.nr.crc import CRC24A_POLY, CRC24B_POLY, CRC_LEN, attach_crc, check_crc, crc24

from helpers import crc_bit_serial

POLYS = {"A": CRC24A_POLY, "B": CRC24B_POLY}


@pytest.mark.parametrize("variant", ["A", "B"])
def test_all_zero_message_gives_zero(variant):
    assert crc24(np.zeros(64, dtype=np.uint8), variant) == 0


def test_known_byte_example():
    # 0xC0, variant A: frozen from the bit-serial oracle
    bits = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
    assert crc_bit_serial(bits, CRC24A_POLY) == 0x2AE476
    assert crc24(bits, "A") == 0x2AE476


@pytest.mark.parametrize("variant", ["A", "B"])
def test_oracle_agreement_on_random_messages(variant):
    rng = np.random.default_rng(101)
    for _ in range(200):
        bits = rng.integers(0, 2, int(rng.integers(1, 300)), dtype=np.uint8)
        assert crc24(bits, variant) == crc_bit_serial(bits, POLYS[variant])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=400), st.sampled_from(["A", "B"]))
def test_oracle_agreement_property(bits, variant):
    arr = np.array(bits, dtype=np.uint8)
    assert crc24(arr, variant) == crc_bit_serial(arr, POLYS[variant])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=8, max_size=120), st.data())
def test_single_bit_corruption_always_detected(bits, data):
    arr = np.array(bits, dtype=np.uint8)
    tagged = attach_crc(arr, "B")
    pos = data.draw(st.integers(0, len(tagged) - 1))
    corrupted = tagged.copy()
    corrupted[pos] ^= 1
    assert check_crc(tagged, "B")
    assert not check_crc(corrupted, "B")


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        crc24(np.array([], dtype=np.uint8), "A")


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        crc24(np.ones(8, dtype=np.uint8), "C")


def test_long_message_matches_oracle():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, 20001, dtype=np.uint8)  # crosses the mask-table growth path
    assert crc24(bits, "A") == crc_bit_serial(bits, CRC24A_POLY)


def _check_crc_by_recomputing(bits_with_crc, variant):
    """check_crc as the trailing-bit comparison: recompute the CRC of the
    leading bits and compare it, MSB first, with the trailing 24 bits."""
    if bits_with_crc.size <= CRC_LEN:
        return False
    data, tail = bits_with_crc[:-CRC_LEN], bits_with_crc[-CRC_LEN:]
    value = crc24(data, variant)
    expect = (value >> np.arange(CRC_LEN - 1, -1, -1)) & 1
    return bool(np.array_equal(tail, expect.astype(np.uint8)))


@pytest.mark.parametrize("variant", ["A", "B"])
@pytest.mark.parametrize("kind", ["intact", "tail-flipped", "body-flipped", "random"])
def test_zero_remainder_check_equals_trailing_bit_comparison(variant, kind):
    """A block followed by its own CRC has CRC 0, and only then."""
    rng = np.random.default_rng(2024)
    for size in [*range(1, 60), 100, 999, 8424, 30000]:
        for _ in range(6):
            bits = rng.integers(0, 2, size, dtype=np.uint8)
            if kind != "random":
                bits = attach_crc(bits, variant)
            if kind == "tail-flipped":
                bits[-int(rng.integers(1, CRC_LEN + 1))] ^= 1
            elif kind == "body-flipped":
                bits[int(rng.integers(0, size))] ^= 1
            want = _check_crc_by_recomputing(bits, variant)
            assert check_crc(bits, variant) == want
            assert want == (kind == "intact")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5000), st.sampled_from(["A", "B"]), st.data())
def test_each_row_of_a_2d_call_matches_the_oracle(n_rows, n, variant, data):
    """Rows on the last axis: each row's CRC is its bit-serial CRC, and
    attach_crc appends each row's own CRC."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    bits = np.random.default_rng(seed).integers(0, 2, (n_rows, n), dtype=np.uint8)
    values = crc24(bits, variant)
    assert values.shape == (n_rows,)
    assert [int(v) for v in values] == [crc_bit_serial(row, POLYS[variant]) for row in bits]
    tagged = attach_crc(bits, variant)
    for row, tagged_row in zip(bits, tagged):
        assert np.array_equal(tagged_row, attach_crc(row, variant))


def test_long_rows_reduce_in_slices():
    """Rows longer than one multiply-and-reduce slice, and more rows than
    fit a slice side by side, still match the oracle."""
    rng = np.random.default_rng(8)
    for shape in [(2, 80_064), (40_000, 3)]:
        bits = rng.integers(0, 2, shape, dtype=np.uint8)
        values = crc24(bits, "A")
        for i in (0, shape[0] - 1):
            assert int(values[i]) == crc_bit_serial(bits[i], CRC24A_POLY)
