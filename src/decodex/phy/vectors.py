"""Test-vector generation: the transmit side of the chain, end to end.

Everything here is a pure function of (payload, MCS, PRB, snr_db, seed).
Per-TB noise seeds derive as seed ^ tb_index so vectors can be produced
concurrently without sharing generator state.

The TBs of a cell share their MCS and PRB, so all their code blocks share
one CodeBlockParams, up to the e of each TB's last CB.  So the chain runs
each stage once per batch of code blocks, not once per block: a batch is
consecutive CBs of one e, in (TB, CB) order, as one (rows, ...) array.  A
batch holds at most MAX_BATCH_BITS, one BG1 zc=384 codeword, counting each
row as max(n_full, e): BG2 zc=16 blocks go about 31 at a time, blocks of
zc >= 320 one at a time.  Every TB of a batch gets one noise draw, which
transmit adds to each of its rows, so its CBs get the same noise samples as
when each CB drew from the TB's seed on its own.

Golden vectors serialize as text, one line per code block:

    bg,zc,e,snr_db,seed,payload_hex,llr_csv

where payload_hex packs the TB payload bits MSB-first and llr_csv holds the
E demapped channel LLRs of that CB.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..ldpc import ALL_LIFTING_SIZES, BG_DIMS, DEFAULT_MAX_ITERATIONS, encode
from ..nr import (
    DecodeDescriptor,
    TransportBlock,
    build_tb_descriptors,
    code_block_bits,
    mcs_lookup,
    plan_transport_block,
    random_transport_block,
    rate_dematch,
    rate_match,
)
from .channel import ChannelConfig, transmit
from .modem import demap_llr, modulate

MAX_BATCH_BITS = BG_DIMS[1][1] * max(ALL_LIFTING_SIZES)  # one BG1 zc=384 codeword


@dataclass(frozen=True)
class TbVectors:
    """One TB's prepared decode inputs plus the transmit-side intermediates."""

    tb: TransportBlock
    descriptors: list[DecodeDescriptor]
    channel_llrs: list[np.ndarray]  # per CB, length e


def _batches(n_rows: int, e_of_cb: list[int], per_batch: int):
    """(lo, hi) row ranges of at most per_batch consecutive rows of one e,
    the rows being (TB, CB) pairs with len(e_of_cb) CBs per TB."""
    c = len(e_of_cb)
    lo = 0
    while lo < n_rows:
        hi = lo + 1
        while hi < n_rows and hi - lo < per_batch and e_of_cb[hi % c] == e_of_cb[lo % c]:
            hi += 1
        yield lo, hi
        lo = hi


def _transmit_chain(
    tbs: Sequence[TransportBlock],
    seeds: Sequence[int],
    tb_ids: Sequence[int],
    snr_db: float,
    max_iterations: int,
) -> list[TbVectors]:
    """Encode, modulate, add noise, demap, and de-match TBs of one MCS and
    PRB, a bounded batch of code blocks per stage call."""
    qm = mcs_lookup(tbs[0].mcs).qm
    plan = plan_transport_block(tbs[0])
    cb_params = [d.cb_params for d in build_tb_descriptors(tbs[0])]
    channels = [ChannelConfig(snr_db=snr_db, seed=seed) for seed in seeds]
    sigma2 = channels[0].sigma2 if channels[0].sigma2 > 0 else 10.0 ** (-30 / 10.0)
    c = plan.c
    e_of_cb = [p.e for p in cb_params]
    per_batch = max(1, MAX_BATCH_BITS // max(cb_params[0].n_full, *e_of_cb))

    descriptors = [[] for _ in tbs]
    channel_llrs = [[] for _ in tbs]
    # A few TBs at a time, so the systematic blocks never span a whole cell.
    tbs_per_group = max(1, per_batch // c)
    for first in range(0, len(tbs), tbs_per_group):
        group = tbs[first:first + tbs_per_group]
        blocks = code_block_bits(group, plan)
        for lo, hi in _batches(len(blocks), e_of_cb, per_batch):
            params = cb_params[lo % c]
            symbols = modulate(rate_match(encode(blocks[lo:hi], params), params), qm)
            received = np.empty_like(symbols)
            for t in range(lo // c, (hi - 1) // c + 1):
                a, b = max(lo, t * c) - lo, min(hi, (t + 1) * c) - lo
                received[a:b] = transmit(symbols[a:b], channels[first + t])
            llrs = demap_llr(received, qm, sigma2).reshape(hi - lo, -1)[:, : params.e]
            soft = rate_dematch(llrs, params)
            for r in range(lo, hi):
                t = first + r // c
                descriptors[t].append(
                    DecodeDescriptor(params, max_iterations, tb_ids[t], r % c, soft[r - lo])
                )
                channel_llrs[t].append(llrs[r - lo])
    return [TbVectors(tb, d, ch) for tb, d, ch in zip(tbs, descriptors, channel_llrs)]


def prepare_tb_vectors(
    tb: TransportBlock,
    snr_db: float,
    seed: int,
    tb_id: int = 0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> TbVectors:
    """Encode, modulate, add noise, demap, and de-match one transport block."""
    return _transmit_chain([tb], [seed], [tb_id], snr_db, max_iterations)[0]


def generate_cell_vectors(
    mcs: int,
    prb: int,
    snr_db: float,
    n_tb: int,
    seed: int,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> list[TbVectors]:
    """n_tb random TBs for one (mcs, prb, snr) cell, seeds spread per TB;
    the TBs are numbered 0..n_tb-1 in order."""
    if n_tb < 1:
        raise ValueError(f"n_tb must be >= 1, got {n_tb}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    seeds = [seed ^ i for i in range(n_tb)]
    tbs = [random_transport_block(mcs, prb, np.random.default_rng(s)) for s in seeds]
    return _transmit_chain(tbs, seeds, range(n_tb), snr_db, max_iterations)


def _bits_to_hex(bits: np.ndarray) -> str:
    return bytes(np.packbits(np.asarray(bits, dtype=np.uint8))).hex()


def dump_golden_vectors(vectors: list[TbVectors], snr_db: float, seed: int) -> str:
    """Serialize prepared vectors in the cross-implementation text format.

    llr_csv is the trailing comma-separated LLR list; parsers should split
    each line on the first six commas only.
    """
    lines = []
    for vec in vectors:
        payload_hex = _bits_to_hex(vec.tb.payload_bits)
        for desc, llrs in zip(vec.descriptors, vec.channel_llrs):
            p = desc.cb_params
            llr_csv = ",".join(str(int(v)) for v in llrs)
            lines.append(f"{p.bg},{p.zc},{p.e},{snr_db:g},{seed},{payload_hex},{llr_csv}")
    return "\n".join(lines) + "\n"
