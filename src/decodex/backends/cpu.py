"""Real decoding: decode_outcomes, the one place a descriptor becomes a
DecodeOutcome, and the multi-worker CPU backend.

The CPU backend's smallest schedulable unit is a transport block:
descriptors are grouped by tb_id and each group runs on one worker process.
Decoding is deterministic, so results are identical for any worker count;
only the wall-clock timings change.

The worker processes persist, as a FlexRAN-style runtime keeps its core-pinned
workers: the process holds one pool, built on the first multi-worker call
and kept until a call asks for another worker count, so a sweep forks it
once, not once per cell.  Workers are forked after the decoder kernel loads,
so it and the parity-check expansions made so far carry over; a shape first
seen later is expanded once in each worker.  Each worker is pinned to its own
CPU.  concurrent.futures shuts the pool down when the process exits.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.util import Finalize

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


# (workers, pool, finalizer that shuts the pool down): at most one pool is alive
_pool: tuple[int, ProcessPoolExecutor, Finalize] | None = None


def _close_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[2]()
        _pool = None


def _forget_pool() -> None:
    """In a forked child: the pool's queues are shared with the parent but its
    manager thread is not, so the child neither uses nor shuts down the
    parent's pool; a multi-worker call there builds the child's own."""
    global _pool
    if _pool is not None:
        _pool[2].cancel()
        _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process's pinned pool of ``workers`` processes, built on first use
    after shutting down a pool of another size.

    concurrent.futures shuts the pool down at interpreter exit.  A
    multiprocessing child exits through multiprocessing's finalizers instead,
    which join its children before that handler runs and so would wait on the
    idle workers for ever.  The finalizer shuts the pool down there, at a
    priority above that of the pool's own queues (10), which must still be
    open."""
    global _pool
    if _pool is not None and _pool[0] != workers:
        _close_pool()
    if _pool is None:
        ctx = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx, initializer=_pin_worker,
                                   initargs=(ctx.Value("i", 0),))
        _pool = workers, pool, Finalize(None, pool.shutdown, exitpriority=100)
    return _pool[1]


def cpu_decode_batch(descriptors: list[DecodeDescriptor], workers: int = 1) -> BackendReport:
    """Decode a batch on ``workers`` processes, one TB per task.

    Per-CB decode failures surface as converged=False outcomes; the batch
    never aborts.  A worker that dies breaks the pool: the call that finds it
    broken raises BrokenProcessPool, and the next multi-worker call builds a
    new pool.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    groups: dict[int, list[DecodeDescriptor]] = {}
    for d in descriptors:
        groups.setdefault(d.tb_id, []).append(d)
    tasks = sorted(groups.items())

    minsum_kernel()  # load it before the clock starts and before the pool forks
    pool = _shared_pool(workers) if workers > 1 and len(tasks) > 1 else None
    report = BackendReport(clock_type="wall")
    batch_start = time.perf_counter()
    if pool is None:
        results = [_decode_tb(t) for t in tasks]
    else:
        try:
            results = list(pool.map(_decode_tb, tasks))
        except BrokenProcessPool:
            _close_pool()
            raise
    report.total_us = (time.perf_counter() - batch_start) * 1e6
    for tb_id, latency_us, outcomes in results:
        report.tb_latency_us[tb_id] = latency_us
        report.outcomes.extend(outcomes)
    return report
