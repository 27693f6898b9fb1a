"""Decode backends as functions of descriptor lists.

Functional decoding happens once, in cpu.decode_outcomes, so decoded bits
and iteration counts are identical across backends.  Every call returns a
BackendReport, a frozen value that the clock timing the call builds once.
cpu_decode_batch decodes a batch on a worker pool, times it on the wall
clock and gives its outcomes in (tb_id, cb_id) order.  The lookaside and
inline models are virtual-clock timing functions of descriptor shapes plus a
LookasideModel or an InlineModel: lookaside_bulk_report and the
inline_timing_* functions give the timing alone, and the runners
(run_lookaside_*, inline_decode_*) attach the caller's outcomes of the ops
they delivered, in the caller's order; no runner decodes, and perfbench
hooks their names.
"""

from __future__ import annotations

from .cpu import cpu_decode_batch
from .inline import (
    inline_decode_parallel,
    inline_decode_sequential,
    inline_timing_parallel,
    inline_timing_sequential,
)
from .lookaside import (
    QueuePair,
    lookaside_bulk_report,
    lookaside_dequeue,
    lookaside_enqueue,
    run_lookaside_bulk,
    run_lookaside_sequential,
)
from .model import DEFAULT_MODELS, InlineModel, LookasideModel

BACKEND_KINDS = ("cpu", *DEFAULT_MODELS)

__all__ = [
    "BACKEND_KINDS",
    "DEFAULT_MODELS",
    "InlineModel",
    "LookasideModel",
    "QueuePair",
    "cpu_decode_batch",
    "inline_decode_parallel",
    "inline_decode_sequential",
    "inline_timing_parallel",
    "inline_timing_sequential",
    "lookaside_bulk_report",
    "lookaside_dequeue",
    "lookaside_enqueue",
    "run_lookaside_bulk",
    "run_lookaside_sequential",
]
