"""Discrete-event lookaside accelerator: queue-pair enqueue/dequeue.

The device is a deeply pipelined decoder behind a depth-limited FIFO.  An
accepted op begins after its host-to-device transfer lands and at least
pipeline_ii after the previous op started; it completes after the fixed
service time plus its return transfer.  Completion order is FIFO.  The host
runs one event loop, as a bbdev-style enqueue/dequeue burst loop does: it
enqueues while the queue has room, and one bounded wait (_wait) polls at
poll_interval granularity both for a free slot and for the final drain,
stopping after a retry budget with a drain_shortfall failure state.
Sequential dispatch is the same loop at queue depth 1.

This module is timing only: the virtual-clock report of a run follows from
descriptor shapes and the model.  The run_lookaside_* runners decode
nothing; they attach the caller's outcomes of the ops the drain delivered.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

from ..ldpc import decode_layered_minsum  # noqa: F401  (perfbench/tracing.py patches this name)
from ..nr import DecodeDescriptor
from .model import LookasideModel
from .report import BackendReport, DecodeOutcome

DEFAULT_QUEUE_DEPTH = 1024
DEFAULT_DRAIN_RETRIES = 100_000


@dataclass
class QueuePair:
    """In-flight op FIFO plus the device pipeline's next-start time."""

    model: LookasideModel
    depth: int = DEFAULT_QUEUE_DEPTH
    fifo: deque = field(default_factory=deque)  # (descriptor, enqueue_time, completion_time)
    next_start: float = 0.0
    enq_count: int = 0
    deq_count: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("queue depth must be >= 1")

    @property
    def outstanding(self) -> int:
        return len(self.fifo)


def lookaside_enqueue(q: QueuePair, op: DecodeDescriptor, now: float) -> bool:
    """Offer one op; False signals backpressure (queue at depth)."""
    if q.outstanding >= q.depth:
        return False
    m = q.model
    arrival = now + m.dma_overhead + m.transfer_per_byte * op.input_bytes
    start = max(arrival, q.next_start)
    q.next_start = start + m.pipeline_ii
    completion = start + m.op_service + m.return_overhead + m.transfer_per_byte * op.output_bytes
    q.fifo.append((op, now, completion))
    q.enq_count += 1
    return True


def lookaside_dequeue(
    q: QueuePair, max_ops: int, now: float
) -> list[tuple[DecodeDescriptor, float, float]]:
    """Pop up to max_ops completed ops (completion <= now), FIFO order.

    Returns (descriptor, enqueue_time, completion_time) triples; empty when
    nothing has completed yet.
    """
    out = []
    while q.fifo and len(out) < max_ops and q.fifo[0][2] <= now:
        out.append(q.fifo.popleft())
        q.deq_count += 1
    return out


def _report(q: QueuePair, completed, clock: float, retries: int,
            outcomes: Sequence[DecodeOutcome]) -> BackendReport:
    # FIFO order: a TB's first op was enqueued first and its last op dequeued last.
    first_submit: dict[int, float] = {}
    for desc, t_enq, _ in completed:
        first_submit.setdefault(desc.tb_id, t_enq)
    failure = (f"drain_shortfall: enq={q.enq_count} deq={q.deq_count} after {retries} retries"
               if q.enq_count != q.deq_count else None)
    return BackendReport(
        clock_type="virtual",
        tb_latency_us=MappingProxyType(
            {d.tb_id: t_deq - first_submit[d.tb_id] for d, _, t_deq in completed}),
        outcomes=tuple(outcomes[: q.deq_count]),  # a drain shortfall delivers the first deq_count
        total_us=clock,
        enq_count=q.enq_count,
        deq_count=q.deq_count,
        failure=failure,
    )


def _wait(q: QueuePair, target: int, clock: float, retries: int, completed: list) -> float:
    """Poll every poll_interval, dequeuing every completed op, until at most
    ``target`` ops are outstanding or ``retries`` polls are spent.

    Appends the dequeued (descriptor, enqueue_time, dequeue_time) triples to
    ``completed`` and returns the advanced clock.
    """
    for _ in range(retries):
        if q.outstanding <= target:
            break
        got = lookaside_dequeue(q, q.outstanding, clock)
        completed.extend((desc, t, clock) for desc, t, _ in got)
        if q.outstanding > target:
            clock += q.model.poll_interval
    return clock


def run_lookaside_bulk(
    descriptors: list[DecodeDescriptor],
    model: LookasideModel,
    outcomes: Sequence[DecodeOutcome],
    depth: int = DEFAULT_QUEUE_DEPTH,
    max_drain_retries: int = DEFAULT_DRAIN_RETRIES,
) -> BackendReport:
    """Enqueue every op as soon as the queue has room, then drain; the report
    carries the caller's ``outcomes`` (in descriptor order) of the delivered
    ops.

    A full queue waits for one free slot and the drain waits for an empty
    queue; each wait polls at most max_drain_retries times.  A wait that
    exhausts its budget ends the run with a drain_shortfall failure state
    (enq != deq) rather than raising, and only the first deq_count ops are
    delivered.  At depth 1 this is sequential dispatch: each op is enqueued
    once the previous one has dequeued.
    """
    q = QueuePair(model=model, depth=depth)
    clock = 0.0
    completed = []
    for d in descriptors:
        clock = _wait(q, depth - 1, clock, max_drain_retries, completed)
        if not lookaside_enqueue(q, d, clock):
            return _report(q, completed, clock, max_drain_retries, outcomes)
    clock = _wait(q, 0, clock, max_drain_retries, completed)
    return _report(q, completed, clock, max_drain_retries, outcomes)


def lookaside_bulk_report(
    descriptors: list[DecodeDescriptor],
    model: LookasideModel,
    depth: int = DEFAULT_QUEUE_DEPTH,
    max_drain_retries: int = DEFAULT_DRAIN_RETRIES,
) -> BackendReport:
    """The timing alone of run_lookaside_bulk."""
    return run_lookaside_bulk(descriptors, model, [], depth, max_drain_retries)


def run_lookaside_sequential(
    descriptors: list[DecodeDescriptor], model: LookasideModel, outcomes: Sequence[DecodeOutcome]
) -> BackendReport:
    """One op at a time: run_lookaside_bulk at queue depth 1."""
    return run_lookaside_bulk(descriptors, model, outcomes, depth=1)
