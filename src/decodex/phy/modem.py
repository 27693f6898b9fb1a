"""Gray-mapped QAM modulation and max-log soft demapping.

Constellations follow the standard NR bit-to-symbol formulas with analytic
unit-energy normalization (1/sqrt(2), 1/sqrt(10), 1/sqrt(42), 1/sqrt(170)).
LLR sign convention: positive means bit 0 is more likely.  Quantized LLRs
are scaled by LLR_QUANT_GAIN, chosen so a clean QPSK symbol at 10 dB lands
near half scale (|LLR| ~ 64) instead of saturating immediately.

demap_llr searches per axis: each bit of a Gray square constellation lives
on one axis, so its two minima run over sqrt(2^qm) levels, not 2^qm points.
_reference_demap, the full search over an (n_sym, 2^qm) distance matrix,
stays as its oracle, and the two are equal bit for bit.
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


# _axis_search hands a symbol to the full search when, on either axis, the
# nearest level and the next level farther off are within _TIE (relative) of
# equally far; this includes every part beyond about 1/_TIE level spacings.
# Elsewhere every other level's |.|^2 either equals the nearest level's or
# exceeds it by more than 1000 times the rounding error of |.| (relative, at
# least _TIE**3 / 8), so both searches pick the same minimum.
_TIE = 2.0 ** -12


@lru_cache(maxsize=None)
def _axis_levels(qm: int) -> np.ndarray:
    """(2, 2^(qm/2)): the I and the Q levels, row r holding the level whose
    axis bits spell r (the axis's first bit most significant).  They are
    constellation(qm)'s own real and imaginary parts, so they are the
    oracle's floats to the last bit."""
    pts = constellation(qm)
    bits = _symbol_bits(qm)
    only_i = np.flatnonzero(~bits[:, 1::2].any(axis=1))
    only_q = np.flatnonzero(~bits[:, 0::2].any(axis=1))
    return np.stack([pts.real[only_i], pts.imag[only_q]])


# Points x symbols per block of _full_search: its complex differences are
# taken a block of points at a time, so a demap call over a whole batch of
# code blocks holds one point's row of them, not one row per point.
_FULL_SEARCH_BLOCK = 1 << 13


def _full_search(y: np.ndarray, qm: int) -> np.ndarray:
    """(qm, n): per bit, min over its bit-1 points - min over its bit-0
    points of |y - s|^2, over all 2^qm points."""
    pts = constellation(qm)
    d2 = np.empty((pts.size, y.size))  # (point, n)
    step = max(1, _FULL_SEARCH_BLOCK // max(1, y.size))
    for lo in range(0, pts.size, step):
        np.abs(y[None, :] - pts[lo:lo + step, None], out=d2[lo:lo + step])
    d2 *= d2
    out = np.empty((qm, y.size))
    for j in range(qm):
        best = d2.reshape(1 << j, 2, (1 << qm) >> (j + 1), y.size).min(axis=(0, 2))  # (bit value, n)
        np.subtract(best[1], best[0], out=out[j])
    return out


def _axis_search(y: np.ndarray, qm: int) -> np.ndarray:
    """_full_search over one axis's levels only, the other axis at its
    nearest level."""
    levels = _axis_levels(qm)
    n, half, width = y.size, qm // 2, levels.shape[1]
    z = np.empty((2, width, n), dtype=np.complex128)  # (axis, level, n)
    np.subtract(np.stack([y.real, y.imag])[:, None, :], levels[:, :, None], out=z.real)
    d2 = np.abs(z.real)  # for now, each level's distance along its axis
    nearest = d2.min(axis=1)
    np.copyto(d2, np.inf, where=d2 <= nearest[:, None, :])
    farther = d2.min(axis=1)  # the next distinct distance
    z.imag = nearest[::-1, None, :]  # the other axis at its nearest level
    np.abs(z, out=d2)
    d2 *= d2
    out = np.empty((half, 2, n))  # (axis bit, axis, n): bit j = 2 * axis bit + axis
    for m in range(half):
        best = d2.reshape(2, 1 << m, 2, width >> (m + 1), n).min(axis=(1, 3))  # (axis, bit value, n)
        np.subtract(best[:, 1], best[:, 0], out=out[m])
    out = out.reshape(qm, n)
    hard = ~(farther - nearest > _TIE * farther).all(axis=0)  # NaN is hard too
    if hard.any():
        out[:, hard] = _full_search(y[hard], qm)
    return out


def demap_llr(symbols: np.ndarray, qm: int, sigma2: float) -> np.ndarray:
    """Max-log per-bit LLRs, quantized to saturating int8.

    LLR_j = (min over bit-1 points - min over bit-0 points) of |y - s|^2
    divided by sigma2, scaled by LLR_QUANT_GAIN, clipped to [-127, 127].

    Gray square QAM puts each bit on one axis, so from 16QAM up each minimum
    runs over that axis's levels only, with the other axis at its nearest
    level (Tosato and Bisaglia, ICC 2002); QPSK's four points are no more
    work than that.  Each distance is the complex |.|^2 that _reference_demap
    takes, and symbols where rounding could rank two levels of the other axis
    differently (see _TIE) take the full search, so the two agree bit for bit.
    """
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    y = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    llrs = _full_search(y, qm) if qm == 2 else _axis_search(y, qm)
    llrs *= LLR_QUANT_GAIN / sigma2
    np.rint(llrs, out=llrs)
    np.clip(llrs, -LLR_MAX, LLR_MAX, out=llrs)
    return llrs.astype(np.int8).T.reshape(-1)


def _reference_demap(symbols: np.ndarray, qm: int, sigma2: float) -> np.ndarray:
    """demap_llr's oracle: the min over all 2^qm points of the full
    (n_sym, 2^qm) distance matrix, for each bit."""
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    pts = constellation(qm)
    is1 = _symbol_bits(qm).T
    symbols = np.asarray(symbols, dtype=np.complex128)
    d2 = np.abs(symbols[:, None] - pts[None, :]) ** 2  # (n_sym, 2^qm)
    llrs = np.empty((symbols.size, qm))
    for j in range(qm):
        llrs[:, j] = d2[:, is1[j]].min(axis=1) - d2[:, ~is1[j]].min(axis=1)
    llrs *= LLR_QUANT_GAIN / sigma2
    return np.clip(np.rint(llrs), -LLR_MAX, LLR_MAX).astype(np.int8).reshape(-1)


def bits_to_llrs(bits: np.ndarray, magnitude: int = 16) -> np.ndarray:
    """Noise-free soft mapping: bit 0 -> +magnitude, bit 1 -> -magnitude."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.where(bits == 0, magnitude, -magnitude).astype(np.int8)
