"""Shared test oracles, independent of the production code paths, and the
decoded outcomes the virtual-clock runners take from their callers."""

import itertools
from dataclasses import replace

import numpy as np

from decodex.backends import cpu_decode_batch
from decodex.ldpc import (
    DEFAULT_MAX_ITERATIONS,
    LIFTING_SETS,
    LLR_MAX,
    CodeBlockParams,
    encode,
    get_base_graph,
    set_index_for_zc,
)
from decodex.nr import (
    attach_crc,
    build_tb_descriptors,
    mcs_lookup,
    plan_transport_block,
    random_transport_block,
    rate_dematch,
    rate_match,
)
from decodex.phy import (
    LLR_QUANT_GAIN,
    ChannelConfig,
    TbVectors,
    constellation,
    demap_llr,
    modulate,
    transmit,
)
from decodex.phy.modem import _symbol_bits

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


def full_search_demap(symbols, qm: int, sigma2: float) -> np.ndarray:
    """demap_llr's oracle: for bit j, the min of (y - s)^2 on bit j's axis
    over all of constellation(qm)'s bit-1 points, minus the same over its
    bit-0 points, then demap_llr's gain, rounding and int8 clip."""
    pts = constellation(qm)
    is1 = _symbol_bits(qm).T  # (qm, 2^qm)
    y = np.asarray(symbols, dtype=np.complex128)
    llrs = np.empty((y.size, qm))
    for j in range(qm):
        yj, sj = (y.real, pts.real) if j % 2 == 0 else (y.imag, pts.imag)
        d2 = (yj[:, None] - sj[None, :]) ** 2  # (n_sym, 2^qm)
        llrs[:, j] = d2[:, is1[j]].min(axis=1) - d2[:, ~is1[j]].min(axis=1)
    llrs *= LLR_QUANT_GAIN / sigma2
    return np.clip(np.rint(llrs), -LLR_MAX, LLR_MAX).astype(np.int8).reshape(-1)


def outcomes_of(descriptors):
    """Decoded outcomes of ``descriptors`` in their (tb_id, cb_id) order, as a
    caller hands them to run_lookaside_* and inline_decode_*."""
    return cpu_decode_batch(list(descriptors)).outcomes


def code_block_bits_per_cb(tb, plan):
    """Systematic bit blocks of one TB, one code block at a time, each CRC a
    1-D call: the segmentation as it ran before the chain was batched."""
    stream = attach_crc(tb.payload_bits, "A")
    chunk = plan.bits_per_chunk
    blocks = []
    for i in range(plan.c):
        part = stream[i * chunk:(i + 1) * chunk]
        if part.size < chunk:
            part = np.concatenate([part, np.zeros(chunk - part.size, dtype=np.uint8)])
        if plan.c > 1:
            part = attach_crc(part, "B")
        block = np.zeros(plan.params[i].k, dtype=np.uint8)
        block[: part.size] = part
        blocks.append(block)
    return blocks


def prepare_tb_vectors_per_cb(tb, snr_db, seed, tb_id=0, max_iterations=DEFAULT_MAX_ITERATIONS):
    """The transmit chain one code block at a time, every stage a 1-D call:
    the oracle of the batched chain."""
    entry = mcs_lookup(tb.mcs)
    plan = plan_transport_block(tb)
    blank = build_tb_descriptors(tb, max_iterations=max_iterations, tb_id=tb_id)
    blocks = code_block_bits_per_cb(tb, plan)
    channel = ChannelConfig(snr_db=snr_db, seed=seed)
    sigma2 = channel.sigma2 if channel.sigma2 > 0 else 10.0 ** (-30 / 10.0)

    descriptors = []
    llrs_per_cb = []
    for desc, block in zip(blank, blocks):
        cw = encode(block, desc.cb_params)
        tx_bits = rate_match(cw, desc.cb_params)
        symbols = modulate(tx_bits, entry.qm)
        received = transmit(symbols, channel)
        llrs = demap_llr(received, entry.qm, sigma2)[: desc.cb_params.e]
        descriptors.append(replace(desc, llr=rate_dematch(llrs, desc.cb_params)))
        llrs_per_cb.append(llrs)
    return TbVectors(tb=tb, descriptors=descriptors, channel_llrs=llrs_per_cb)


def generate_cell_vectors_per_cb(mcs, prb, snr_db, n_tb, seed,
                                 max_iterations=DEFAULT_MAX_ITERATIONS):
    """generate_cell_vectors through the per-CB oracle chain."""
    out = []
    for i in range(n_tb):
        tb_seed = seed ^ i
        rng = np.random.default_rng(tb_seed)
        tb = random_transport_block(mcs, prb, rng)
        out.append(
            prepare_tb_vectors_per_cb(tb, snr_db, tb_seed, tb_id=i, max_iterations=max_iterations)
        )
    return out
