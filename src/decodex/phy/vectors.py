"""Test-vector generation: the transmit side of the chain, end to end.

Everything here is a pure function of (payload, MCS, PRB, snr_db, seed).
Per-TB noise seeds derive as seed ^ tb_index so vectors can be produced
concurrently without sharing generator state.

Golden vectors serialize as text, one line per code block:

    bg,zc,e,snr_db,seed,payload_hex,llr_csv

where payload_hex packs the TB payload bits MSB-first and llr_csv holds the
E demapped channel LLRs of that CB.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..ldpc import DEFAULT_MAX_ITERATIONS, encode
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


@dataclass(frozen=True)
class TbVectors:
    """One TB's prepared decode inputs plus the transmit-side intermediates."""

    tb: TransportBlock
    descriptors: list[DecodeDescriptor]
    channel_llrs: list[np.ndarray]  # per CB, length e


def prepare_tb_vectors(
    tb: TransportBlock,
    snr_db: float,
    seed: int,
    tb_id: int = 0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> TbVectors:
    """Encode, modulate, add noise, demap, and de-match one transport block."""
    entry = mcs_lookup(tb.mcs)
    plan = plan_transport_block(tb)
    blank = build_tb_descriptors(tb, max_iterations=max_iterations, tb_id=tb_id)
    blocks = code_block_bits(tb, plan)
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
    out = []
    for i in range(n_tb):
        tb_seed = seed ^ i
        rng = np.random.default_rng(tb_seed)
        tb = random_transport_block(mcs, prb, rng)
        out.append(
            prepare_tb_vectors(tb, snr_db, tb_seed, tb_id=i, max_iterations=max_iterations)
        )
    return out


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
