"""Real decoding: decode_outcomes, the one place a descriptor becomes a
DecodeOutcome, and the multi-worker CPU backend.

The CPU backend's smallest schedulable unit is a transport block:
descriptors are grouped by tb_id and each group runs on one worker thread.
Decoding is deterministic, so results are identical for any worker count;
only the wall-clock timings change.

The workers are threads of this process, pinned each to its own CPU, as
FlexRAN runs its decode on core-pinned threads in one address space.  The
compiled kernel is loaded with ctypes, which releases the GIL around every
foreign call, so the threads decode in parallel and share one kernel and one
set of parity-check expansions.  The numpy reference, which decodes where
there is no C compiler, holds the GIL: more workers then decode correctly but
not faster.  The threads persist: the process holds one pool, built on the
first multi-worker call and kept until a call asks for another worker count,
so a sweep starts them once, not once per cell.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from types import MappingProxyType

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
        r = decode_layered_minsum(d.llr, d.cb_params, max_iterations=d.max_iterations)
        outcomes.append(DecodeOutcome(d.tb_id, d.cb_id, r.bits, r.iterations_used, r.converged))
    outcomes.sort(key=lambda o: (o.tb_id, o.cb_id))
    return outcomes


def _decode_tb(args: tuple[int, list[DecodeDescriptor]]) -> tuple[int, float, list[DecodeOutcome]]:
    tb_id, descriptors = args
    start = time.perf_counter()
    outcomes = decode_outcomes(descriptors)
    latency_us = (time.perf_counter() - start) * 1e6
    return tb_id, latency_us, outcomes


def _pin_worker(slots: itertools.count) -> None:
    """Pool initializer: pin each worker thread to its own CPU, as a
    FlexRAN-style runtime pins its workers to cores.  Unpinned, the scheduler
    can keep both workers of a batch that lasts a few hundred ms on one CPU.
    On Linux, sched_setaffinity(0, ...) pins the calling thread only."""
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[next(slots) % len(cpus)]})


# (workers, pool): at most one pool is alive
_pool: tuple[int, ThreadPoolExecutor] | None = None


def _forget_pool() -> None:
    """In a forked child: the parent's worker threads do not exist there, so
    the child drops the pool, and a multi-worker call there builds its own."""
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    """The process's pinned pool of ``workers`` threads, built on first use
    after shutting down a pool of another size.  concurrent.futures joins the
    idle threads when the interpreter exits."""
    global _pool
    if _pool is None or _pool[0] != workers:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = workers, ThreadPoolExecutor(max_workers=workers, initializer=_pin_worker,
                                            initargs=(itertools.count(),))
    return _pool[1]


def cpu_decode_batch(descriptors: list[DecodeDescriptor], workers: int = 1) -> BackendReport:
    """Decode a batch on ``workers`` threads, one TB per task.

    The outcomes come back in (tb_id, cb_id) order, whatever the order of
    ``descriptors``.  Per-CB decode failures surface as converged=False
    outcomes; the batch never aborts.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    groups: dict[int, list[DecodeDescriptor]] = {}
    for d in descriptors:
        groups.setdefault(d.tb_id, []).append(d)
    tasks = sorted(groups.items())

    minsum_kernel()  # load (or build) it before the clock starts
    pool = _shared_pool(workers) if workers > 1 and len(tasks) > 1 else None
    batch_start = time.perf_counter()
    results = [_decode_tb(t) for t in tasks] if pool is None else list(pool.map(_decode_tb, tasks))
    return BackendReport(
        clock_type="wall",
        total_us=(time.perf_counter() - batch_start) * 1e6,
        tb_latency_us=MappingProxyType({tb_id: us for tb_id, us, _ in results}),
        outcomes=tuple(o for _, _, outcomes in results for o in outcomes),
    )
