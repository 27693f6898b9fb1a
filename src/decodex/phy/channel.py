"""Seeded complex AWGN channel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelConfig:
    """Per-symbol Es/N0 in dB plus a 64-bit seed; snr_db=inf disables noise.

    NaN and -inf are rejected: neither names a channel.
    """

    snr_db: float
    seed: int

    def __post_init__(self):
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must be a number or +inf, got {self.snr_db}")

    @property
    def sigma2(self) -> float:
        return 0.0 if math.isinf(self.snr_db) else 10.0 ** (-self.snr_db / 10.0)


def transmit(symbols: np.ndarray, channel: ChannelConfig) -> np.ndarray:
    """y = x + n with n ~ CN(0, sigma2), variance split evenly across I/Q.

    Identical (symbols, channel) always produce identical output.  The noise
    is drawn over the last axis only, from a generator seeded afresh on every
    call, and added to every row of a (rows, n_sym) array.  So the rows of
    one call, like repeated calls with one config, get the same noise
    samples.  This is a known deviation from independent AWGN per code
    block: the code blocks of a transport block share its seed.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if channel.sigma2 == 0.0:
        return symbols.copy()
    rng = np.random.default_rng(channel.seed)
    scale = math.sqrt(channel.sigma2 / 2.0)
    n_sym = symbols.shape[-1]
    noise = rng.normal(0.0, scale, n_sym) + 1j * rng.normal(0.0, scale, n_sym)
    return symbols + noise
