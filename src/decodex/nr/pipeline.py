"""Transport-block chain: CRC attachment, descriptor fan-out, reassembly."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ..ldpc import DEFAULT_MAX_ITERATIONS, CodeBlockParams
from .crc import CB_CRC_VARIANT, TB_CRC_VARIANT, attach_crc, check_crc
from .mcs import compute_tb_size, mcs_lookup, num_coded_bits
from .segment import SegmentationPlan, TB_CRC_LEN, segment, select_base_graph


@dataclass(frozen=True)
class TransportBlock:
    """One MAC-scheduled data unit: payload plus its allocation."""

    payload_bits: np.ndarray
    mcs: int
    prb: int

    def __post_init__(self):
        n = len(self.payload_bits)
        if n == 0 or n % 8 != 0:
            raise ValueError("payload length must be a positive multiple of 8")

    @property
    def b(self) -> int:
        return len(self.payload_bits)


def make_transport_block(payload_bits: np.ndarray, mcs: int, prb: int) -> TransportBlock:
    return TransportBlock(
        payload_bits=np.asarray(payload_bits, dtype=np.uint8), mcs=mcs, prb=prb
    )


def random_transport_block(mcs: int, prb: int, rng: np.random.Generator) -> TransportBlock:
    entry = mcs_lookup(mcs)
    b = compute_tb_size(prb, entry)
    return make_transport_block(rng.integers(0, 2, b, dtype=np.uint8), mcs, prb)


def plan_transport_block(tb: TransportBlock) -> SegmentationPlan:
    entry = mcs_lookup(tb.mcs)
    bg = select_base_graph(tb.b, entry.rate)
    return segment(tb.b, bg)


def split_coded_bits(total_e: int, c: int) -> list[int]:
    """Even E split across code blocks, remainder to the last one."""
    base = total_e // c
    return [base] * (c - 1) + [total_e - base * (c - 1)]


@dataclass(frozen=True)
class DecodeDescriptor:
    """One decode operation: soft input, coding parameters, placement.

    llr is the post-dematch soft block (n_full int8 values), None until the
    vector-generation pipeline builds the descriptor with one; its length is
    checked.
    """

    cb_params: CodeBlockParams
    max_iterations: int
    tb_id: int
    cb_id: int
    llr: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.llr is not None and self.llr.shape != (self.cb_params.n_full,):
            raise ValueError("llr length must equal n_full")

    @property
    def input_bytes(self) -> int:
        """Modeled host-to-device payload: one byte per rate-matched LLR."""
        return self.cb_params.e

    @property
    def output_bytes(self) -> int:
        """Modeled device-to-host payload: packed decoded info bits."""
        return (self.cb_params.k + 7) // 8


def build_tb_descriptors(
    tb: TransportBlock, max_iterations: int = DEFAULT_MAX_ITERATIONS, tb_id: int = 0
) -> list[DecodeDescriptor]:
    """One decode descriptor per code block, with its E set."""
    plan = plan_transport_block(tb)
    entry = mcs_lookup(tb.mcs)
    e_split = split_coded_bits(num_coded_bits(tb.prb, entry), plan.c)
    return [
        DecodeDescriptor(
            cb_params=replace(plan.params[i], e=e_split[i]),
            max_iterations=max_iterations,
            tb_id=tb_id,
            cb_id=i,
        )
        for i in range(plan.c)
    ]


def code_block_bits(
    tb: TransportBlock | Sequence[TransportBlock], plan: SegmentationPlan
) -> np.ndarray:
    """Systematic bit blocks, one row per CB: chunk (+CB CRC when C>1) +
    filler zeros.  TBs of one plan give their rows in (TB, CB) order.

    The TB CRC is appended first; the tail chunk is zero-padded up to the
    chunk size before its CB CRC when the split does not divide evenly.
    """
    tbs = [tb] if isinstance(tb, TransportBlock) else tb
    stream = attach_crc(np.stack([t.payload_bits for t in tbs]), TB_CRC_VARIANT)
    chunk = plan.bits_per_chunk
    parts = np.zeros((len(tbs), plan.c * chunk), dtype=np.uint8)
    parts[:, : stream.shape[1]] = stream
    parts = parts.reshape(-1, chunk)
    if plan.c > 1:
        parts = attach_crc(parts, CB_CRC_VARIANT)
    blocks = np.zeros((len(parts), plan.params[0].k), dtype=np.uint8)
    blocks[:, : parts.shape[1]] = parts
    return blocks


@dataclass(frozen=True)
class ReassembledBlock:
    """Outcome of putting decoded CB bits back together."""

    payload_bits: np.ndarray
    tb_crc_ok: bool
    cb_crc_ok: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return self.tb_crc_ok and all(self.cb_crc_ok)


def reassemble(decoded_blocks: list[np.ndarray], tb: TransportBlock) -> ReassembledBlock:
    """Check CB CRCs (when segmented), strip them, and check the TB CRC."""
    plan = plan_transport_block(tb)
    if len(decoded_blocks) != plan.c:
        raise ValueError(f"expected {plan.c} decoded blocks, got {len(decoded_blocks)}")
    chunk = plan.bits_per_chunk
    cb_ok = []
    parts = []
    for bits in decoded_blocks:
        data = np.asarray(bits, dtype=np.uint8)[: plan.k_prime]
        cb_ok.append(plan.c == 1 or check_crc(data, CB_CRC_VARIANT))
        parts.append(data[:chunk])
    stream = np.concatenate(parts)[: tb.b + TB_CRC_LEN]
    tb_ok = check_crc(stream, TB_CRC_VARIANT)
    return ReassembledBlock(
        payload_bits=stream[: tb.b], tb_crc_ok=tb_ok, cb_crc_ok=tuple(cb_ok)
    )
