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
inline_timing_* work on the per-TB descriptor lists, and the inline_decode_*
runners attach the caller's outcomes (batches flattened).  Despite their
names they decode nothing; perfbench hooks them by name.  An empty input is
zero work: 0 us at utilization 0.0.
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
    tb_batches: list[list[DecodeDescriptor]], model: InlineModel
) -> InlineTiming:
    """Pure timing of one launch per TB, back to back, each TB transferred
    separately.  Utilization is the mean per-launch slot footprint over
    capacity."""
    if not tb_batches:
        return InlineTiming(kernel_us=0.0, total_us=0.0, utilization=0.0)
    counts = [len(b) for b in tb_batches]
    tb_us = tuple(_transfer_time(b, model) + _launch_time(len(b), model) for b in tb_batches)
    total = 0.0
    for i, t in enumerate(tb_us):
        if i:
            total += model.inter_launch_gap
        total += t
    kernel = sum(_launch_time(c, model) for c in counts)
    kernel += (len(counts) - 1) * model.inter_launch_gap
    util = sum(_stream_slots(c, model) for c in counts) / (len(counts) * model.capacity)
    return InlineTiming(kernel_us=kernel, total_us=total, utilization=util, tb_us=tb_us)


def inline_timing_parallel(
    tb_batches: list[list[DecodeDescriptor]], model: InlineModel
) -> InlineTiming:
    """Pure timing of one launch over all codewords, after one aggregate
    transfer; every stream's slot footprint is resident at once and every TB
    completes together."""
    if not tb_batches:
        return InlineTiming(kernel_us=0.0, total_us=0.0, utilization=0.0)
    counts = [len(b) for b in tb_batches]
    kernel = _launch_time(sum(counts), model)
    slots = min(sum(_stream_slots(c, model) for c in counts), model.capacity)
    total = kernel + _transfer_time([d for b in tb_batches for d in b], model)
    return InlineTiming(
        kernel_us=kernel,
        total_us=total,
        utilization=slots / model.capacity,
        tb_us=(total,) * len(counts),
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


def inline_decode_sequential(
    tb_batches: list[list[DecodeDescriptor]], model: InlineModel, outcomes: Sequence[DecodeOutcome]
) -> BackendReport:
    """One launch per TB, back to back, with the caller's ``outcomes`` attached."""
    return _report(tb_batches, inline_timing_sequential(tb_batches, model), outcomes)


def inline_decode_parallel(
    tb_batches: list[list[DecodeDescriptor]], model: InlineModel, outcomes: Sequence[DecodeOutcome]
) -> BackendReport:
    """One launch over all codewords, with the caller's ``outcomes`` attached."""
    return _report(tb_batches, inline_timing_parallel(tb_batches, model), outcomes)
