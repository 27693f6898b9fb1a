"""Layered normalized min-sum decoding with early termination.

Soft values cross the interface as saturating signed 8-bit LLRs (positive
means bit 0 is more likely).  Inside the decoder, posterior accumulators are
kept in int32 and the check-to-variable messages are re-saturated to
[-127, 127] on write-back, mirroring fixed-point accelerator behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basegraph import ParityCheckMatrix, expand_base_graph
from .params import CodeBlockParams

LLR_MAX = 127


@dataclass(frozen=True)
class DecodeResult:
    """Hard-decision info bits plus how the decoder got there."""

    bits: np.ndarray
    iterations_used: int
    converged: bool


def syndrome_check(pcm: ParityCheckMatrix, codeword: np.ndarray) -> bool:
    """True iff every check-node parity of the lifted graph is satisfied."""
    codeword = np.asarray(codeword)
    if codeword.shape != (pcm.n_cols,):
        raise ValueError(f"expected codeword of length {pcm.n_cols}, got {codeword.shape}")
    bits = codeword.astype(np.int64, copy=False)
    for idx in pcm.gather:
        if (bits[idx].sum(axis=0) & 1).any():
            return False
    return True


def decode_layered_minsum(
    llr: np.ndarray,
    params: CodeBlockParams,
    max_iterations: int = 20,
    norm_factor: float = 0.75,
    early_termination: bool = True,
) -> DecodeResult:
    """Run layered normalized min-sum over the base-graph rows.

    A full sweep over all layers counts as one iteration; after each sweep
    the full hard decision is syndrome-checked and decoding stops early on
    success.  Statistics (iterations_used, converged) and bits are a pure
    function of the inputs.
    """
    llr = np.asarray(llr)
    if llr.shape != (params.n_full,):
        raise ValueError(f"expected {params.n_full} LLRs, got {llr.shape}")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if not 0.0 < norm_factor <= 1.0:
        raise ValueError("norm_factor must be in (0, 1]")

    pcm = expand_base_graph(params.bg, params.zc, params.set_index)
    app = llr.astype(np.int32)
    c2v = [np.zeros(idx.shape, dtype=np.int32) for idx in pcm.gather]
    norm_q12 = int(norm_factor * 4096)  # 12-bit fixed-point scaling

    iterations = 0
    converged = False
    for _ in range(max_iterations):
        for layer, idx in enumerate(pcm.gather):
            t = app[idx] - c2v[layer]  # variable-to-check, check-aligned
            mag = np.abs(t)
            neg = t < 0
            second = min(1, mag.shape[0] - 1)
            two_min = np.partition(mag, second, axis=0)
            min1 = two_min[0]
            min2 = two_min[second]
            sel = np.where(mag == min1, min2, min1)
            scaled = np.minimum((sel * norm_q12) >> 12, LLR_MAX)
            row_parity = neg.sum(axis=0) & 1
            sign = np.where(row_parity[None, :] ^ neg, -1, 1)
            new_msgs = sign * scaled
            c2v[layer] = new_msgs
            app[idx] = t + new_msgs
        iterations += 1
        if early_termination and syndrome_check(pcm, app < 0):
            converged = True
            break
    if not early_termination:
        converged = syndrome_check(pcm, app < 0)

    bits = (app[: params.k] < 0).astype(np.uint8)
    return DecodeResult(bits=bits, iterations_used=iterations, converged=converged)
