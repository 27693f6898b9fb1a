"""Circular-buffer rate matching and soft de-matching (rv=0 only).

The circular buffer holds codeword positions [2*zc, n_full) with filler
positions skipped.  Matching reads E bits from offset 0, wrapping into
repetition; de-matching accumulates soft values back into those positions
with saturating addition, zeros the punctured and untransmitted positions,
and pins filler positions to maximum confidence.  Both work on every row of
a (rows, ...) array at once; a 1-D call is the one-row case.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..ldpc import LLR_MAX, CodeBlockParams, ConfigurationError


# One entry: a transmit chain runs one code-block shape at a time, and each
# cached array holds up to 200 KB.
@lru_cache(maxsize=1)
def _buffer_indices(bg: int, zc: int, kb: int, n_filler: int) -> np.ndarray:
    params = CodeBlockParams(bg, zc, kb, n_filler)
    idx = np.arange(2 * zc, params.n_full)
    if n_filler:
        idx = idx[(idx < params.k - n_filler) | (idx >= params.k)]
    idx.flags.writeable = False
    return idx


def buffer_indices(params: CodeBlockParams) -> np.ndarray:
    """Codeword indices of the circular buffer, in read order: one read-only
    array per code-block shape, whatever its e."""
    return _buffer_indices(params.bg, params.zc, params.kb, params.n_filler)


def rate_match(codeword: np.ndarray, params: CodeBlockParams) -> np.ndarray:
    """Select params.e bits of each codeword row from the circular buffer
    (k0 = 0, wrapping)."""
    codeword = np.asarray(codeword)
    if codeword.ndim not in (1, 2) or codeword.shape[-1] != params.n_full:
        raise ValueError(f"expected codewords of length {params.n_full}")
    if params.e <= 0:
        raise ConfigurationError("rate matching needs e > 0")
    idx = buffer_indices(params)
    return np.tile(codeword[..., idx], -(-params.e // idx.size))[..., : params.e]


def rate_dematch(llrs: np.ndarray, params: CodeBlockParams) -> np.ndarray:
    """Accumulate each row of E received LLRs back into an n_full soft block.

    Repetition combining saturates at +/-127 after each wrap pass; punctured
    and untransmitted positions read 0; filler positions read +127.
    """
    llrs = np.asarray(llrs)
    if llrs.ndim not in (1, 2) or llrs.shape[-1] != params.e:
        raise ValueError(f"expected {params.e} soft values, got {llrs.shape}")
    idx = buffer_indices(params)
    out = np.zeros(llrs.shape[:-1] + (params.n_full,), dtype=np.int32)
    for start in range(0, params.e, idx.size):
        chunk = llrs[..., start:start + idx.size].astype(np.int32)
        at = idx[: chunk.shape[-1]]
        out[..., at] = np.clip(out[..., at] + chunk, -LLR_MAX, LLR_MAX)
    if params.n_filler:
        out[..., params.k - params.n_filler:params.k] = LLR_MAX
    return out.astype(np.int8)
