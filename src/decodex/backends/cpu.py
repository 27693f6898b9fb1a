"""Real decoding: decode_outcomes, the one place a descriptor becomes a
DecodeOutcome, and the multi-worker CPU backend.

The CPU backend's smallest schedulable unit is a transport block:
descriptors are grouped by tb_id and each group runs on one worker process.
Decoding is deterministic, so results are identical for any worker count;
only the wall-clock timings change.  Worker processes are forked so the
expanded parity-check caches and the loaded decoder kernel carry over, and
each is pinned to its own CPU.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

from ..ldpc import decode_layered_minsum, minsum_kernel
from ..nr import DecodeDescriptor
from .report import BackendReport, DecodeOutcome


def decode_outcomes(descriptors: list[DecodeDescriptor]) -> list[DecodeOutcome]:
    """Decode each descriptor with the real decoder; outcomes come back in
    (tb_id, cb_id) order."""
    outcomes = []
    for d in descriptors:
        if d.llr is None:
            raise ValueError("descriptor has no LLR input")
        res = decode_layered_minsum(d.llr, d.cb_params, max_iterations=d.max_iterations)
        outcomes.append(
            DecodeOutcome(
                tb_id=d.tb_id,
                cb_id=d.cb_id,
                bits=res.bits,
                iterations_used=res.iterations_used,
                converged=res.converged,
            )
        )
    outcomes.sort(key=lambda o: (o.tb_id, o.cb_id))
    return outcomes


def _decode_tb(args: tuple[int, list[DecodeDescriptor]]) -> tuple[int, float, list[DecodeOutcome]]:
    tb_id, descriptors = args
    start = time.perf_counter()
    outcomes = decode_outcomes(descriptors)
    latency_us = (time.perf_counter() - start) * 1e6
    return tb_id, latency_us, outcomes


def _pin_worker(slots) -> None:
    """Pool initializer: pin each worker to its own CPU, as a FlexRAN-style
    runtime pins its workers to cores.  Unpinned, the scheduler can keep both
    workers of a batch that lasts a few hundred ms on one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return
    with slots.get_lock():
        slot = slots.value
        slots.value += 1
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[slot % len(cpus)]})


def cpu_decode_batch(descriptors: list[DecodeDescriptor], workers: int = 1) -> BackendReport:
    """Decode a batch on ``workers`` processes, one TB per task.

    Per-CB decode failures surface as converged=False outcomes; the batch
    never aborts.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    groups: dict[int, list[DecodeDescriptor]] = {}
    for d in descriptors:
        groups.setdefault(d.tb_id, []).append(d)
    tasks = sorted(groups.items())

    minsum_kernel()  # load it before the clock starts, once for every forked worker
    report = BackendReport(clock_type="wall")
    batch_start = time.perf_counter()
    if workers == 1 or len(tasks) <= 1:
        results = [_decode_tb(t) for t in tasks]
    else:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx, initializer=_pin_worker,
                                 initargs=(ctx.Value("i", 0),)) as pool:
            results = list(pool.map(_decode_tb, tasks))
    report.total_us = (time.perf_counter() - batch_start) * 1e6
    for tb_id, latency_us, outcomes in results:
        report.tb_latency_us[tb_id] = latency_us
        report.outcomes.extend(outcomes)
    return report
