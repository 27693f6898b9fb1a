"""Acceleration models behind one submit() contract.

Functional decoding happens once, in cpu.decode_outcomes, so decoded bits
and iteration counts are identical across backends.  The cpu backend times
that decode on the wall clock.  The lookaside and inline backends are
virtual-clock timing models of descriptor shapes plus a LatencyModel: time()
gives the timing report alone, submit() adds the decoded outcomes.
"""

from __future__ import annotations

from .cpu import cpu_decode_batch, decoded
from .descriptor import DecodeDescriptor
from .inline import (
    inline_decode_parallel,
    inline_decode_sequential,
    inline_parallel_report,
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
from .model import (
    DEFAULT_MODELS,
    LatencyModel,
    inline_default,
    lookaside_default,
    model_from_mapping,
    unified_default,
)
from .report import BackendReport

BACKEND_KINDS = ("cpu", *DEFAULT_MODELS)


class CpuBackend:
    clock_type = "wall"

    def __init__(self, workers: int = 1):
        self.workers = workers

    def submit(self, descriptors: list[DecodeDescriptor]) -> BackendReport:
        return cpu_decode_batch(descriptors, workers=self.workers)


class LookasideBackend:
    """Bulk enqueue, then one drain, on the default-depth queue pair."""

    clock_type = "virtual"

    def __init__(self, model: LatencyModel | None = None):
        self.model = model or lookaside_default()

    def time(self, descriptors: list[DecodeDescriptor]) -> BackendReport:
        return lookaside_bulk_report(descriptors, self.model)

    def submit(self, descriptors: list[DecodeDescriptor]) -> BackendReport:
        return decoded(self.time(descriptors), descriptors)


class InlineBackend:
    """One parallel launch over the submitted TBs."""

    clock_type = "virtual"

    def __init__(self, model: LatencyModel | None = None, unified: bool = False):
        self.kind = "inline-unified" if unified else "inline"
        self.model = model or DEFAULT_MODELS[self.kind]()

    def time(self, descriptors: list[DecodeDescriptor]) -> BackendReport:
        groups: dict[int, list[DecodeDescriptor]] = {}
        for d in descriptors:
            groups.setdefault(d.tb_id, []).append(d)
        report = inline_parallel_report([v for _, v in sorted(groups.items())], self.model)
        report.backend = self.kind
        return report

    def submit(self, descriptors: list[DecodeDescriptor]) -> BackendReport:
        return decoded(self.time(descriptors), descriptors)


def make_backend(kind: str, model: LatencyModel | None = None, workers: int = 1):
    """Uniform factory: submit(descriptors) -> BackendReport.  ``workers``
    applies to the cpu backend, ``model`` to the virtual ones."""
    if kind == "cpu":
        return CpuBackend(workers=workers)
    if kind == "lookaside":
        return LookasideBackend(model=model)
    if kind in ("inline", "inline-unified"):
        return InlineBackend(model=model, unified=kind == "inline-unified")
    raise ValueError(f"unknown backend kind {kind!r}")


__all__ = [
    "BACKEND_KINDS",
    "DEFAULT_MODELS",
    "LatencyModel",
    "QueuePair",
    "cpu_decode_batch",
    "inline_decode_parallel",
    "inline_decode_sequential",
    "inline_default",
    "inline_timing_parallel",
    "inline_timing_sequential",
    "lookaside_default",
    "lookaside_dequeue",
    "lookaside_enqueue",
    "make_backend",
    "model_from_mapping",
    "run_lookaside_bulk",
    "run_lookaside_sequential",
    "unified_default",
]
