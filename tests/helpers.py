"""Shared test oracles, independent of the production code paths, and the
decoded outcomes the virtual-clock runners take from their callers."""

import itertools

import numpy as np

from decodex.backends import cpu_decode_batch
from decodex.ldpc import (
    LIFTING_SETS,
    CodeBlockParams,
    encode,
    get_base_graph,
    set_index_for_zc,
)

# One small lifting size per set index: 2, 3, 5, 7, 9, 11, 13, 15.
SMALLEST_PER_SET = tuple(sizes[0] for sizes in LIFTING_SETS)


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


def base_graph_h(bg: int, zc: int) -> np.ndarray:
    """Dense H built straight from the bundled base-graph entries, one
    ``np.roll(np.eye(zc), shift % zc, axis=1)`` block per entry: an oracle
    that shares no code with the lifted graph's circulant list."""
    graph = get_base_graph(bg)
    set_index = set_index_for_zc(zc)
    h = np.zeros((graph.rows * zc, graph.cols * zc), dtype=np.uint8)
    for (r, c), shifts in graph.entries.items():
        block = np.roll(np.eye(zc, dtype=np.uint8), shifts[set_index] % zc, axis=1)
        h[r * zc:(r + 1) * zc, c * zc:(c + 1) * zc] = block
    return h


def dense_syndrome_ok(bg: int, zc: int, codeword: np.ndarray) -> bool:
    """Dense GF(2) matrix-vector oracle for the layered syndrome check."""
    return int((base_graph_h(bg, zc) @ codeword % 2).sum()) == 0


def outcomes_of(descriptors):
    """Decoded outcomes of ``descriptors`` in their (tb_id, cb_id) order, as a
    caller hands them to run_lookaside_* and inline_decode_*."""
    return cpu_decode_batch(list(descriptors)).outcomes
