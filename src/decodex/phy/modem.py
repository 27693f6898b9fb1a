"""Gray-mapped QAM modulation and max-log soft demapping.

Constellations follow the standard NR bit-to-symbol formulas with analytic
unit-energy normalization (1/sqrt(2), 1/sqrt(10), 1/sqrt(42), 1/sqrt(170)).
LLR sign convention: positive means bit 0 is more likely.  Quantized LLRs
are scaled by LLR_QUANT_GAIN, chosen so a clean QPSK symbol at 10 dB lands
near half scale (|LLR| ~ 64) instead of saturating immediately.

demap_llr is one real search per axis: each bit of a Gray square
constellation lives on one axis, where the other axis's distance cancels
exactly, so its max-log LLR runs over sqrt(2^qm) levels, not 2^qm points.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..ldpc import LLR_MAX

SUPPORTED_QM = (2, 4, 6, 8)
LLR_QUANT_GAIN = 3.2


def _pam_levels(bits: np.ndarray) -> np.ndarray:
    """One-axis amplitude from alternating Gray bits (b0, b2, ...)."""
    sign = 1 - 2 * bits[:, 0].astype(np.int64)
    if bits.shape[1] == 1:
        return sign
    inner = _pam_levels(bits[:, 1:])
    return sign * ((1 << (bits.shape[1] - 1)) - inner)


@lru_cache(maxsize=None)
def _symbol_bits(qm: int) -> np.ndarray:
    """Bool (2^qm, qm): the bits of each constellation index, b0 first."""
    n = 1 << qm
    return ((np.arange(n)[:, None] >> np.arange(qm - 1, -1, -1)[None, :]) & 1).astype(bool)


@lru_cache(maxsize=None)
def constellation(qm: int) -> np.ndarray:
    """All 2^qm points indexed by the symbol's bit pattern (b0 is MSB)."""
    if qm not in SUPPORTED_QM:
        raise ValueError(f"unsupported modulation order {qm}")
    bits = _symbol_bits(qm).astype(np.int64)
    i_axis = _pam_levels(bits[:, 0::2])
    q_axis = _pam_levels(bits[:, 1::2])
    points = i_axis + 1j * q_axis
    scale = {2: np.sqrt(2.0), 4: np.sqrt(10.0), 6: np.sqrt(42.0), 8: np.sqrt(170.0)}[qm]
    return points / scale


def modulate(bits: np.ndarray, qm: int) -> np.ndarray:
    """Map each row of bits (the last axis) to complex symbols; zero-pads the
    rows to a multiple of qm."""
    pts = constellation(qm)
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[-1] % qm:
        pad = np.zeros(bits.shape[:-1] + (qm - bits.shape[-1] % qm,), dtype=np.uint8)
        bits = np.concatenate([bits, pad], axis=-1)
    groups = bits.reshape(bits.shape[:-1] + (-1, qm))
    idx = groups @ (1 << np.arange(qm - 1, -1, -1))
    return pts[idx]


@lru_cache(maxsize=None)
def _axis_levels(qm: int) -> np.ndarray:
    """(2, 2^(qm/2)): the I and the Q levels, row r holding the level whose
    axis bits spell r (the axis's first bit most significant).  They are
    constellation(qm)'s own real and imaginary parts."""
    pts = constellation(qm)
    bits = _symbol_bits(qm)
    only_i = np.flatnonzero(~bits[:, 1::2].any(axis=1))
    only_q = np.flatnonzero(~bits[:, 0::2].any(axis=1))
    return np.stack([pts.real[only_i], pts.imag[only_q]])


def demap_llr(symbols: np.ndarray, qm: int, sigma2: float) -> np.ndarray:
    """Max-log per-bit LLRs, quantized to saturating int8.

    LLR_j = (min over bit-1 levels - min over bit-0 levels) of (x - level)^2,
    x being y's coordinate on bit j's axis, divided by sigma2, scaled by
    LLR_QUANT_GAIN, clipped to [-127, 127].

    This is the max-log over all 2^qm points, exactly: Gray square QAM puts
    each bit on one axis, and the other axis's term is the same in both
    minima, so it cancels (Tosato and Bisaglia, ICC 2002).
    """
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    y = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    levels = _axis_levels(qm)
    n, width = y.size, levels.shape[1]
    d2 = np.empty((2, width, n))  # (axis, level, n)
    np.subtract(np.stack([y.real, y.imag])[:, None, :], levels[:, :, None], out=d2)
    d2 *= d2
    llrs = np.empty((qm // 2, 2, n))  # (axis bit, axis, n): bit j = 2 * axis bit + axis
    for m in range(qm // 2):
        best = d2.reshape(2, 1 << m, 2, width >> (m + 1), n).min(axis=(1, 3))  # (axis, bit value, n)
        np.subtract(best[:, 1], best[:, 0], out=llrs[m])
    llrs = llrs.reshape(qm, n)
    llrs *= LLR_QUANT_GAIN / sigma2
    np.rint(llrs, out=llrs)
    np.clip(llrs, -LLR_MAX, LLR_MAX, out=llrs)
    return llrs.astype(np.int8).T.reshape(-1)


def bits_to_llrs(bits: np.ndarray, magnitude: int = 16) -> np.ndarray:
    """Noise-free soft mapping: bit 0 -> +magnitude, bit 1 -> -magnitude."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.where(bits == 0, magnitude, -magnitude).astype(np.int8)
