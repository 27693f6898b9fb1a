"""Virtual-time cost model for the simulated accelerators.

All durations are virtual microseconds; transfer_per_byte multiplies the
modeled DMA payload sizes (LLR bytes in, packed bits out).  Defaults are
calibrated so the lookaside round trip is 30 us (10 setup + 18 service +
2 return) against a 1 us initiation interval, and so one inline launch
costs 16 us (15 launch + 1 per codeword wave) with a 16 us re-orchestration
gap between consecutive sequential launches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class LatencyModel:
    transfer_per_byte: float = 0.0   # us per byte, each direction
    dma_overhead: float = 10.0       # fixed per-op transfer setup, us
    return_overhead: float = 2.0     # fixed completion/return cost, us
    pipeline_ii: float = 1.0         # min spacing between op starts, us
    op_service: float = 18.0         # fixed decode time per op, us
    launch_overhead: float = 15.0    # per kernel launch, us (inline)
    inter_launch_gap: float = 16.0   # host re-orchestration between sequential launches, us
    per_codeword_time: float = 1.0   # per codeword wave, us (inline)
    capacity: int = 256              # concurrent codeword slots (inline)
    min_stream_slots: int = 16       # resident slot footprint of one launch (inline)
    poll_interval: float = 1.0       # host polling granularity, us

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and non-negative")
        if self.pipeline_ii > self.op_service:
            raise ValueError("pipeline_ii must not exceed op_service")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.min_stream_slots < 1:
            raise ValueError("min_stream_slots must be >= 1")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


def lookaside_default() -> LatencyModel:
    """Lookaside defaults: byte costs folded into the fixed 30 us round trip."""
    return LatencyModel()


def inline_default() -> LatencyModel:
    """Inline defaults: per-byte transfer costs enabled for total-latency runs."""
    return LatencyModel(transfer_per_byte=0.0005, dma_overhead=10.0)


def unified_default() -> LatencyModel:
    """Unified-memory inline variant: no host-device transfer costs."""
    return replace(inline_default(), transfer_per_byte=0.0, dma_overhead=0.0)


DEFAULT_MODELS = {
    "lookaside": lookaside_default,
    "inline": inline_default,
    "inline-unified": unified_default,
}

