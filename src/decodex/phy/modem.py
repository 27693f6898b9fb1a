"""Gray-mapped QAM modulation and max-log soft demapping.

Constellations follow the standard NR bit-to-symbol formulas with analytic
unit-energy normalization (1/sqrt(2), 1/sqrt(10), 1/sqrt(42), 1/sqrt(170)).
LLR sign convention: positive means bit 0 is more likely.  Quantized LLRs
are scaled by LLR_QUANT_GAIN, chosen so a clean QPSK symbol at 10 dB lands
near half scale (|LLR| ~ 64) instead of saturating immediately.
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
def constellation(qm: int) -> np.ndarray:
    """All 2^qm points indexed by the symbol's bit pattern (b0 is MSB)."""
    if qm not in SUPPORTED_QM:
        raise ValueError(f"unsupported modulation order {qm}")
    n = 1 << qm
    bits = ((np.arange(n)[:, None] >> np.arange(qm - 1, -1, -1)[None, :]) & 1).astype(np.int64)
    i_axis = _pam_levels(bits[:, 0::2])
    q_axis = _pam_levels(bits[:, 1::2])
    points = i_axis + 1j * q_axis
    scale = {2: np.sqrt(2.0), 4: np.sqrt(10.0), 6: np.sqrt(42.0), 8: np.sqrt(170.0)}[qm]
    return points / scale


def modulate(bits: np.ndarray, qm: int) -> np.ndarray:
    """Map a bit sequence to complex symbols; zero-pads to a multiple of qm."""
    pts = constellation(qm)
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % qm:
        bits = np.concatenate([bits, np.zeros(qm - bits.size % qm, dtype=np.uint8)])
    groups = bits.reshape(-1, qm)
    idx = groups @ (1 << np.arange(qm - 1, -1, -1))
    return pts[idx]


@lru_cache(maxsize=None)
def _bit_subsets(qm: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks (qm, 2^qm): points whose bit j is 0 / is 1."""
    n = 1 << qm
    sym_bits = ((np.arange(n)[:, None] >> np.arange(qm - 1, -1, -1)[None, :]) & 1).astype(bool)
    return ~sym_bits.T, sym_bits.T


def demap_llr(symbols: np.ndarray, qm: int, sigma2: float) -> np.ndarray:
    """Max-log per-bit LLRs, quantized to saturating int8.

    LLR_j = (min over bit-1 points - min over bit-0 points) of |y - s|^2
    divided by sigma2, scaled by LLR_QUANT_GAIN, clipped to [-127, 127].
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    pts = constellation(qm)
    is0, is1 = _bit_subsets(qm)
    symbols = np.asarray(symbols, dtype=np.complex128)
    d2 = np.abs(symbols[:, None] - pts[None, :]) ** 2  # (n_sym, 2^qm)
    llrs = np.empty((symbols.size, qm))
    for j in range(qm):
        llrs[:, j] = d2[:, is1[j]].min(axis=1) - d2[:, is0[j]].min(axis=1)
    llrs *= LLR_QUANT_GAIN / sigma2
    return np.clip(np.rint(llrs), -LLR_MAX, LLR_MAX).astype(np.int8).reshape(-1)


def bits_to_llrs(bits: np.ndarray, magnitude: int = 16) -> np.ndarray:
    """Noise-free soft mapping: bit 0 -> +magnitude, bit 1 -> -magnitude."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.where(bits == 0, magnitude, -magnitude).astype(np.int8)
