"""Layered normalized min-sum decoding with early termination.

Soft values cross the interface as saturating signed 8-bit LLRs (positive
means bit 0 is more likely).  Inside the decoder the check-to-variable
messages are re-saturated to [-127, 127] on write-back, mirroring
fixed-point accelerator behaviour.  The sweeps run in a compiled C kernel
(minsum.c, loaded by kernel.py) that works edge-major on int16 lanes, the
posteriors included: they are converted to int16 once on entry and back to
int32 once on return.  The kernel updates each layer one block of
``LANE_BLOCK`` lanes at a time across all its circulants, so it keeps its
messages in rows of zc rounded up to whole blocks (``_c2v_lanes``).  The numpy
loop kept here, on int32 arrays, is its reference and the fallback without a
compiler.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .basegraph import ParityCheckMatrix, expand_base_graph
from .kernel import LANE_BLOCK, minsum_kernel
from .params import CodeBlockParams

LLR_MAX = 127
NORM_FACTOR = 0.75  # min-sum check-to-variable scaling
MAX_ITERATIONS = 255  # DPDK bbdev's uint8_t iter_max, the ACC100's largest cap
DEFAULT_MAX_ITERATIONS = 20


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
    return _parities_ok(pcm.lane_indices(), codeword.astype(np.int64, copy=False))


def _parities_ok(lanes, bits) -> bool:
    return not any((bits[idx].sum(axis=0) & 1).any() for idx in lanes)


def decode_layered_minsum(
    llr: np.ndarray,
    params: CodeBlockParams,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    early_termination: bool = True,
) -> DecodeResult:
    """Run layered min-sum, normalized by NORM_FACTOR, over the base-graph rows.

    A full sweep over all layers counts as one iteration; after each sweep
    the full hard decision is syndrome-checked and decoding stops early on
    success.  Statistics (iterations_used, converged) and bits are a pure
    function of the inputs.  The sweeps run in the compiled kernel when the
    system has a C compiler, else in the numpy reference; both give the same
    bits and statistics.

    LLRs must be integers in the int8 range: the posteriors then stay
    within 128 + 127 * (column degree), inside the kernel's int16 lanes.
    """
    llr = np.asarray(llr)
    if llr.shape != (params.n_full,):
        raise ValueError(f"expected {params.n_full} LLRs, got {llr.shape}")
    if not np.issubdtype(llr.dtype, np.integer):
        raise ValueError(f"LLRs must be integers, got dtype {llr.dtype}")
    if llr.dtype != np.int8 and llr.size and (llr.min() < -128 or llr.max() > 127):
        raise ValueError("LLRs must lie in the int8 range [-128, 127]")
    if not 1 <= max_iterations <= MAX_ITERATIONS:
        raise ValueError(f"max_iterations must be in [1, {MAX_ITERATIONS}]")

    pcm = expand_base_graph(params.bg, params.zc, params.set_index)
    app = llr.astype(np.int32)
    norm_q12 = int(NORM_FACTOR * 4096)  # 12-bit fixed-point scaling
    sweeps = _reference_sweeps if minsum_kernel() is None else _compiled_sweeps
    iterations, converged = sweeps(app, pcm, max_iterations, norm_q12, early_termination)
    bits = (app[: params.k] < 0).astype(np.uint8)
    return DecodeResult(bits=bits, iterations_used=iterations, converged=converged)


def _c2v_lanes(pcm: ParityCheckMatrix) -> int:
    """The kernel's message array length: one row per circulant, each zc
    rounded up to whole lane blocks."""
    return len(pcm.edges) * -(-pcm.zc // LANE_BLOCK) * LANE_BLOCK


def _compiled_sweeps(app, pcm, max_iterations, norm_q12, early_termination):
    """The sweeps of ``decode_layered_minsum`` in minsum.c; updates ``app``
    in place and returns (iterations_used, converged)."""
    posteriors = app.astype(np.int16)  # exact: see decode_layered_minsum
    c2v = np.zeros(_c2v_lanes(pcm), dtype=np.int16)
    converged = ctypes.c_int()
    iterations = minsum_kernel()(
        posteriors, c2v, pcm.edges, pcm.degrees, pcm.base_rows, pcm.zc,
        max_iterations, norm_q12, early_termination, ctypes.byref(converged),
    )
    app[:] = posteriors
    return iterations, bool(converged.value)


def _reference_sweeps(app, pcm, max_iterations, norm_q12, early_termination):
    """The numpy reference of ``_compiled_sweeps``, same contract: the oracle
    the tests hold the kernel to, and the decoder where no compiler is."""
    lanes = pcm.lane_indices()
    c2v = [np.zeros(idx.shape, dtype=np.int32) for idx in lanes]
    iterations = 0
    converged = False
    for _ in range(max_iterations):
        for layer, idx in enumerate(lanes):
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
        if early_termination and _parities_ok(lanes, app < 0):
            converged = True
            break
    if not early_termination:
        converged = _parities_ok(lanes, app < 0)
    return iterations, converged
