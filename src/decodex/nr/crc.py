"""CRC24 variants A and B over bit sequences.

Both use a zero initial register and no final XOR: the CRC is the remainder
of bits(x) * x^24 divided by the generator over GF(2).  The production path
exploits linearity: the contribution of the bit i positions from the end is
x^(24+i) mod g, precomputed per variant in power-of-two tables and
XOR-reduced over the set bits, which vectorizes cleanly.
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


@lru_cache(maxsize=None)
def _mask_table(variant: str, size: int) -> np.ndarray:
    """x^(24+i) mod g for i in [0, size), as read-only uint32 values."""
    poly = _POLYS[variant]
    out = np.empty(size, dtype=np.uint32)
    m = poly  # x^24 mod g == low bits of g
    for i in range(size):
        out[i] = m
        m <<= 1
        if m & (1 << CRC_LEN):
            m = (m & 0xFFFFFF) ^ poly
    out.flags.writeable = False
    return out


def _masks(variant: str, length: int) -> np.ndarray:
    """The first ``length`` masks, sliced from a power-of-two table of at
    least 4096 entries."""
    return _mask_table(variant, max(4096, 1 << (length - 1).bit_length()))[:length]


def crc24(bits: np.ndarray, variant: str) -> int:
    """24-bit CRC of a bit sequence (MSB-first polynomial division)."""
    if variant not in _POLYS:
        raise ValueError(f"unknown CRC24 variant {variant!r}")
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1 or bits.size == 0:
        raise ValueError("bits must be a non-empty 1-D sequence")
    masks = _masks(variant, bits.size)
    idx = np.flatnonzero(bits)
    if idx.size == 0:
        return 0
    sel = masks[bits.size - 1 - idx]
    return int(np.bitwise_xor.reduce(sel))


def attach_crc(bits: np.ndarray, variant: str) -> np.ndarray:
    """Return bits with their 24 CRC bits appended (MSB first)."""
    value = crc24(bits, variant)
    crc_bits = (value >> np.arange(CRC_LEN - 1, -1, -1)) & 1
    return np.concatenate([np.asarray(bits, dtype=np.uint8), crc_bits.astype(np.uint8)])


def check_crc(bits_with_crc: np.ndarray, variant: str) -> bool:
    """True iff the trailing 24 bits are the CRC of the leading bits.

    With a zero register and no final XOR, a block followed by its own CRC
    leaves remainder 0, and only then: g(0) = 1, so x^24 is invertible mod g.
    """
    bits_with_crc = np.asarray(bits_with_crc, dtype=np.uint8)
    return bits_with_crc.size > CRC_LEN and crc24(bits_with_crc, variant) == 0
