"""Circular-buffer rate matching and soft de-matching (rv=0 only).

The circular buffer holds codeword positions [2*zc, n_full) with filler
positions skipped.  Matching reads E bits from offset 0, wrapping into
repetition; de-matching accumulates soft values back into those positions
with saturating addition, zeros the punctured and untransmitted positions,
and pins filler positions to maximum confidence.
"""

from __future__ import annotations

import numpy as np

from ..ldpc import LLR_MAX, CodeBlockParams, ConfigurationError


def buffer_indices(params: CodeBlockParams) -> np.ndarray:
    """Codeword indices of the circular buffer, in read order."""
    start = 2 * params.zc
    filler_lo = params.k - params.n_filler
    idx = np.arange(start, params.n_full)
    if params.n_filler:
        idx = idx[(idx < filler_lo) | (idx >= params.k)]
    return idx


def rate_match(codeword: np.ndarray, params: CodeBlockParams) -> np.ndarray:
    """Select params.e bits from the circular buffer (k0 = 0, wrapping)."""
    codeword = np.asarray(codeword)
    if codeword.shape != (params.n_full,):
        raise ValueError(f"expected codeword of length {params.n_full}")
    if params.e <= 0:
        raise ConfigurationError("rate matching needs e > 0")
    return np.resize(codeword[buffer_indices(params)], params.e)


def rate_dematch(llrs: np.ndarray, params: CodeBlockParams) -> np.ndarray:
    """Accumulate E received LLRs back into an n_full soft block.

    Repetition combining saturates at +/-127 after each wrap pass; punctured
    and untransmitted positions read 0; filler positions read +127.
    """
    llrs = np.asarray(llrs)
    if llrs.shape != (params.e,):
        raise ValueError(f"expected {params.e} soft values, got {llrs.shape}")
    idx = buffer_indices(params)
    out = np.zeros(params.n_full, dtype=np.int32)
    for start in range(0, params.e, idx.size):
        chunk = llrs[start:start + idx.size].astype(np.int32)
        out[idx[: chunk.size]] = np.clip(out[idx[: chunk.size]] + chunk, -LLR_MAX, LLR_MAX)
    if params.n_filler:
        out[params.k - params.n_filler:params.k] = LLR_MAX
    return out.astype(np.int8)
