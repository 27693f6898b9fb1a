"""Virtual-time cost models for the simulated accelerators, one per device.

All durations are virtual microseconds; transfer_per_byte multiplies the
modeled DMA payload sizes (LLR bytes in, packed bits out).  A model holds
only the fields its device's timing reads.  LookasideModel defaults give a
30 us round trip (10 setup + 18 service + 2 return) against a 1 us
initiation interval.  InlineModel defaults make one launch cost 16 us
(15 launch + 1 per codeword wave) with a 16 us re-orchestration gap between
consecutive sequential launches; the unified-memory variant in
DEFAULT_MODELS zeroes its transfer costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


def _check_finite_non_negative(model) -> None:
    for f in fields(model):
        value = getattr(model, f.name)
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{f.name} must be finite and non-negative")


@dataclass(frozen=True)
class LookasideModel:
    transfer_per_byte: float = 0.0   # us per byte, each direction
    dma_overhead: float = 10.0       # fixed per-op transfer setup, us
    return_overhead: float = 2.0     # fixed completion/return cost, us
    pipeline_ii: float = 1.0         # min spacing between op starts, us
    op_service: float = 18.0         # fixed decode time per op, us
    poll_interval: float = 1.0       # host polling granularity, us

    def __post_init__(self):
        _check_finite_non_negative(self)
        if self.pipeline_ii > self.op_service:
            raise ValueError("pipeline_ii must not exceed op_service")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


@dataclass(frozen=True)
class InlineModel:
    transfer_per_byte: float = 0.0005  # us per byte, each direction
    dma_overhead: float = 10.0         # fixed transfer setup per direction, us
    launch_overhead: float = 15.0      # per kernel launch, us
    inter_launch_gap: float = 16.0     # host re-orchestration between sequential launches, us
    per_codeword_time: float = 1.0     # per codeword wave, us
    capacity: int = 256                # concurrent codeword slots
    min_stream_slots: int = 16         # resident slot footprint of one launch

    def __post_init__(self):
        _check_finite_non_negative(self)
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.min_stream_slots < 1:
            raise ValueError("min_stream_slots must be >= 1")


DEFAULT_MODELS = {
    "lookaside": LookasideModel(),
    "inline": InlineModel(),
    "inline-unified": InlineModel(transfer_per_byte=0.0, dma_overhead=0.0),
}
