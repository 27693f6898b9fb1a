"""CRC24 variants A and B over bit sequences, one per row.

Both use a zero initial register and no final XOR: the CRC is the remainder
of bits(x) * x^24 divided by the generator over GF(2).  The production path
exploits linearity: the contribution of the bit i positions from the end is
x^(24+i) mod g.  A power-of-two table per variant holds these masks in
reverse, so the masks of an n-bit row are the table's last n entries, a
view; every row's CRC is then one multiply and XOR-reduce over the last
axis, taken in slices of bounded size.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

CRC24A_POLY = 0x864CFB
CRC24B_POLY = 0x800063
CRC_LEN = 24

TB_CRC_VARIANT = "A"
CB_CRC_VARIANT = "B"

_POLYS = {"A": CRC24A_POLY, "B": CRC24B_POLY}

# Bits per multiply-and-reduce slice, over all rows: bounds the uint32
# product to 128 KiB however long or many the rows are.
_SLICE_BITS = 1 << 15


@lru_cache(maxsize=None)
def _mask_table(variant: str, size: int) -> np.ndarray:
    """x^(24+i) mod g at index size-1-i, for i in [0, size), as read-only
    uint32 values."""
    poly = _POLYS[variant]
    out = np.empty(size, dtype=np.uint32)
    m = poly  # x^24 mod g == low bits of g
    for i in range(size - 1, -1, -1):
        out[i] = m
        m <<= 1
        if m & (1 << CRC_LEN):
            m = (m & 0xFFFFFF) ^ poly
    out.flags.writeable = False
    return out


def _masks(variant: str, length: int) -> np.ndarray:
    """The masks of a ``length``-bit row, first bit first: the last
    ``length`` entries of a power-of-two table of at least 4096 entries."""
    return _mask_table(variant, max(4096, 1 << (length - 1).bit_length()))[-length:]


def crc24(bits: np.ndarray, variant: str) -> int | np.ndarray:
    """24-bit CRC (MSB-first polynomial division) of each row of ``bits``.

    A 1-D sequence gives an int; rows on the last axis give a uint32 array of
    the leading shape.
    """
    if variant not in _POLYS:
        raise ValueError(f"unknown CRC24 variant {variant!r}")
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim == 0 or bits.shape[-1] == 0:
        raise ValueError("bits must be non-empty rows on the last axis")
    n = bits.shape[-1]
    masks = _masks(variant, n)
    rows = bits.reshape(-1, n)
    crc = np.zeros(len(rows), dtype=np.uint32)
    step = max(1, _SLICE_BITS // max(1, len(rows)))
    for start in range(0, n, step):
        part = rows[:, start:start + step] * masks[start:start + step]
        crc ^= np.bitwise_xor.reduce(part, axis=1)
    return int(crc[0]) if bits.ndim == 1 else crc.reshape(bits.shape[:-1])


def attach_crc(bits: np.ndarray, variant: str) -> np.ndarray:
    """Return each row of bits with its 24 CRC bits appended (MSB first)."""
    bits = np.asarray(bits, dtype=np.uint8)
    value = np.asarray(crc24(bits, variant))
    crc_bits = (value[..., None] >> np.arange(CRC_LEN - 1, -1, -1, dtype=np.uint32)) & 1
    return np.concatenate([bits, crc_bits.astype(np.uint8)], axis=-1)


def check_crc(bits_with_crc: np.ndarray, variant: str) -> bool:
    """True iff the trailing 24 bits are the CRC of the leading bits.

    With a zero register and no final XOR, a block followed by its own CRC
    leaves remainder 0, and only then: g(0) = 1, so x^24 is invertible mod g.
    """
    bits_with_crc = np.asarray(bits_with_crc, dtype=np.uint8)
    return bits_with_crc.size > CRC_LEN and crc24(bits_with_crc, variant) == 0
