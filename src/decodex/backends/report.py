"""Uniform result values for all decode backends."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DecodeOutcome:
    """Functional result of one decoded code block."""

    tb_id: int
    cb_id: int
    bits: np.ndarray
    iterations_used: int
    converged: bool


@dataclass(frozen=True)
class BackendReport:
    """Per-TB latency plus functional outcomes and backend counters, built
    once by the clock that timed the call.

    clock_type is "wall" for the real CPU pool and "virtual" for the
    simulated accelerators.  tb_latency_us is a read-only mapping and
    outcomes a tuple in (tb_id, cb_id) order, so nothing changes the report
    in place.  enq/deq
    counters apply to the lookaside queue (conserved: equal after a
    successful drain); utilization applies to the inline launch models;
    failure carries an explicit error state such as a drain shortfall
    instead of raising.
    """

    clock_type: str
    tb_latency_us: Mapping[int, float]
    outcomes: tuple[DecodeOutcome, ...]
    total_us: float = 0.0
    utilization: float | None = None
    enq_count: int | None = None
    deq_count: int | None = None
    failure: str | None = None

    def bits_by_tb(self) -> dict[int, list[np.ndarray]]:
        """Decoded CB bit blocks grouped by TB, in cb_id order."""
        grouped: dict[int, list[np.ndarray]] = {}
        for o in self.outcomes:
            grouped.setdefault(o.tb_id, []).append(o.bits)
        return grouped
