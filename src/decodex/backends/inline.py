"""Discrete-event inline accelerator: sequential vs parallel batched launches.

A launch decodes its codewords in waves of up to ``capacity`` at
``per_codeword_time`` each, after a fixed launch overhead.  Sequential mode
issues one launch per TB with a host re-orchestration gap between
consecutive launches; parallel mode issues a single launch over every
codeword.  A resident launch (stream) occupies at least min_stream_slots
decode slots, so device utilization grows with concurrent streams while a
lone sequential stream keeps a constant footprint.

Kernel time excludes transfers; total time adds the host-device transfer
costs (zeroed for the unified-memory variant).  This module is timing only:
inline_timing_* work on codeword counts, and the inline_decode_* runners
attach the caller's outcomes (batches flattened).  Despite their names they
decode nothing; perfbench hooks them by name.  An empty input is zero work:
0 us at utilization 0.0.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType

from ..ldpc import decode_layered_minsum  # noqa: F401  (perfbench/tracing.py patches this name)
from ..nr import DecodeDescriptor
from .model import InlineModel
from .report import BackendReport, DecodeOutcome


@dataclass(frozen=True)
class InlineTiming:
    kernel_us: float
    total_us: float
    utilization: float
    tb_us: tuple[float, ...] = ()  # per-launch-stream completion latency, input order


def _launch_time(codewords: int, model: InlineModel) -> float:
    waves = math.ceil(codewords / model.capacity)
    return model.launch_overhead + waves * model.per_codeword_time


def _stream_slots(codewords: int, model: InlineModel) -> int:
    return min(max(codewords, model.min_stream_slots), model.capacity)


def _transfer_time(batch: list[DecodeDescriptor], model: InlineModel) -> float:
    nbytes = sum(d.input_bytes + d.output_bytes for d in batch)
    return 2 * model.dma_overhead + model.transfer_per_byte * nbytes


def inline_timing_sequential(
    codeword_counts: list[int], model: InlineModel, transfer_us: list[float] | None = None
) -> InlineTiming:
    """Pure timing of per-TB launches, back to back; ``transfer_us`` gives
    each launch's transfer time, one per launch.  Utilization is the mean
    per-launch slot footprint over capacity."""
    if transfer_us is None:
        transfer_us = [0.0] * len(codeword_counts)
    elif len(transfer_us) != len(codeword_counts):
        raise ValueError(f"transfer_us has {len(transfer_us)} entries for "
                         f"{len(codeword_counts)} launches")
    if not codeword_counts:
        return InlineTiming(kernel_us=0.0, total_us=0.0, utilization=0.0)
    tb_us = tuple(t + _launch_time(c, model) for c, t in zip(codeword_counts, transfer_us))
    total = 0.0
    for i, t in enumerate(tb_us):
        if i:
            total += model.inter_launch_gap
        total += t
    kernel = sum(_launch_time(c, model) for c in codeword_counts)
    kernel += (len(codeword_counts) - 1) * model.inter_launch_gap
    util = (
        sum(_stream_slots(c, model) for c in codeword_counts)
        / (len(codeword_counts) * model.capacity)
    )
    return InlineTiming(kernel_us=kernel, total_us=total, utilization=util, tb_us=tb_us)


def inline_timing_parallel(
    codeword_counts: list[int], model: InlineModel, transfer_us: float = 0.0
) -> InlineTiming:
    """Pure timing of one launch over all codewords, after one aggregate
    transfer of ``transfer_us``; every stream's slot footprint is resident at
    once and every TB completes together."""
    if not codeword_counts:
        return InlineTiming(kernel_us=0.0, total_us=0.0, utilization=0.0)
    kernel = _launch_time(sum(codeword_counts), model)
    slots = min(sum(_stream_slots(c, model) for c in codeword_counts), model.capacity)
    total = kernel + transfer_us
    return InlineTiming(
        kernel_us=kernel,
        total_us=total,
        utilization=slots / model.capacity,
        tb_us=(total,) * len(codeword_counts),
    )


def _report(tb_batches: list[list[DecodeDescriptor]], timing: InlineTiming,
            outcomes: Sequence[DecodeOutcome]) -> BackendReport:
    return BackendReport(
        clock_type="virtual",
        tb_latency_us=MappingProxyType(
            {batch[0].tb_id: us for batch, us in zip(tb_batches, timing.tb_us)}),
        outcomes=tuple(outcomes),
        total_us=timing.total_us,
        utilization=timing.utilization,
    )


def inline_parallel_report(
    tb_batches: list[list[DecodeDescriptor]], model: InlineModel
) -> BackendReport:
    """The timing alone of inline_decode_parallel: one launch, one transfer."""
    return inline_decode_parallel(tb_batches, model, [])


def inline_decode_sequential(
    tb_batches: list[list[DecodeDescriptor]], model: InlineModel, outcomes: Sequence[DecodeOutcome]
) -> BackendReport:
    """One launch per TB, back to back, each TB transferred separately."""
    counts = [len(b) for b in tb_batches]
    transfers = [_transfer_time(b, model) for b in tb_batches]
    return _report(tb_batches, inline_timing_sequential(counts, model, transfers), outcomes)


def inline_decode_parallel(
    tb_batches: list[list[DecodeDescriptor]], model: InlineModel, outcomes: Sequence[DecodeOutcome]
) -> BackendReport:
    """One launch over all codewords after one aggregate transfer, with the
    caller's ``outcomes`` attached."""
    counts = [len(b) for b in tb_batches]
    transfer = _transfer_time([d for b in tb_batches for d in b], model)
    return _report(tb_batches, inline_timing_parallel(counts, model, transfer), outcomes)
