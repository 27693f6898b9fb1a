"""Shared test oracles, independent of the production code paths, and the
decoded outcomes the virtual-clock runners take from their callers."""

import itertools

import numpy as np

from decodex.backends import cpu_decode_batch
from decodex.ldpc import CodeBlockParams, encode, expand_base_graph


def crc_bit_serial(bits, poly: int) -> int:
    """Reference CRC24: bit-serial long division of bits * x^24."""
    reg = 0
    for b in list(bits) + [0] * 24:
        top = (reg >> 23) & 1
        reg = ((reg << 1) & 0xFFFFFF) | int(b)
        if top:
            reg ^= poly
    return reg


def toy_code_table(zc: int):
    """All codewords of the bundled toy code as (+1/-1) rows, plus params."""
    params = CodeBlockParams(0, zc, 4)
    k, n = params.k, params.n_full
    gen = np.zeros((k, n), dtype=np.uint8)
    for i in range(k):
        unit = np.zeros(k, dtype=np.uint8)
        unit[i] = 1
        gen[i] = encode(unit, params)
    info = ((np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1).astype(np.uint8)
    codewords = (info @ gen) % 2
    return params, codewords, (1 - 2 * codewords.astype(np.int32))


def ml_codeword(pm_table: np.ndarray, llr: np.ndarray):
    """Exhaustive max-likelihood codeword index, or None on a tie."""
    scores = pm_table @ llr.astype(np.int32)
    best = np.flatnonzero(scores == scores.max())
    return int(best[0]) if best.size == 1 else None


def error_patterns(n: int, weight: int):
    return itertools.combinations(range(n), weight)


def dense_syndrome_ok(bg: int, zc: int, set_index: int, codeword: np.ndarray) -> bool:
    """Dense GF(2) matrix-vector oracle for the layered syndrome check."""
    h = expand_base_graph(bg, zc, set_index).to_dense()
    return int((h @ codeword % 2).sum()) == 0


def outcomes_of(descriptors):
    """Decoded outcomes of ``descriptors`` in their (tb_id, cb_id) order, as a
    caller hands them to run_lookaside_* and inline_decode_*."""
    return cpu_decode_batch(list(descriptors)).outcomes
