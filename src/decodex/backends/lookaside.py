"""Discrete-event lookaside accelerator: queue-pair enqueue/dequeue.

The device is a deeply pipelined decoder behind a depth-limited FIFO.  An
accepted op begins after its host-to-device transfer lands and at least
pipeline_ii after the previous op started; it completes after the fixed
service time plus its return transfer.  Completion order is FIFO.  The host
polls at poll_interval granularity, and every wait for a completion stops
after a retry budget with a drain_shortfall failure state.

This module is timing only: the virtual-clock report of a run follows from
descriptor shapes and the model, and the run_lookaside_* runners add the
decoded outcomes of the ops they delivered.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..ldpc import decode_layered_minsum  # noqa: F401  (perfbench/tracing.py patches this name)
from .cpu import decoded
from .descriptor import DecodeDescriptor
from .model import LatencyModel
from .report import BackendReport

DEFAULT_QUEUE_DEPTH = 1024
DEFAULT_DRAIN_RETRIES = 100_000


@dataclass
class QueuePair:
    """In-flight op FIFO plus the device pipeline's next-start time."""

    model: LatencyModel
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


def _timing_report(q: QueuePair, completed, clock: float, retries: int) -> BackendReport:
    report = BackendReport(
        backend="lookaside",
        clock_type="virtual",
        total_us=clock,
        enq_count=q.enq_count,
        deq_count=q.deq_count,
    )
    first_submit: dict[int, float] = {}
    last_done: dict[int, float] = {}
    for desc, t_enq, t_deq in completed:
        first_submit.setdefault(desc.tb_id, t_enq)
        first_submit[desc.tb_id] = min(first_submit[desc.tb_id], t_enq)
        last_done[desc.tb_id] = max(last_done.get(desc.tb_id, 0.0), t_deq)
    for tb_id in last_done:
        report.tb_latency_us[tb_id] = last_done[tb_id] - first_submit[tb_id]
    if q.enq_count != q.deq_count:
        report.failure = (
            f"drain_shortfall: enq={q.enq_count} deq={q.deq_count} after {retries} retries"
        )
    return report


def _poll(q: QueuePair, max_ops: int, clock: float, retries: int):
    """Poll every poll_interval until some op completes, at most ``retries`` times.

    Returns the dequeued (descriptor, enqueue_time, dequeue_time) triples,
    empty when the budget ran out, and the advanced clock.
    """
    for _ in range(retries):
        got = lookaside_dequeue(q, max_ops, clock)
        if got:
            return [(desc, t, clock) for desc, t, _ in got], clock
        clock += q.model.poll_interval
    return [], clock


def lookaside_bulk_report(
    descriptors: list[DecodeDescriptor],
    model: LatencyModel,
    depth: int = DEFAULT_QUEUE_DEPTH,
    max_drain_retries: int = DEFAULT_DRAIN_RETRIES,
) -> BackendReport:
    """Timing of enqueueing everything at once, then draining in one
    retry-capped loop.

    Backpressure retries advance the clock by poll_interval and pull any
    already-completed ops so a queue shorter than the batch cannot deadlock;
    each wait for a free slot polls at most max_drain_retries times.  A wait
    or a drain that exhausts its retry budget with ops still pending reports
    a drain_shortfall failure state (enq != deq) rather than raising.
    """
    q = QueuePair(model=model, depth=depth)
    clock = 0.0
    completed = []
    for d in descriptors:
        while not lookaside_enqueue(q, d, clock):
            got, clock = _poll(q, q.outstanding, clock, max_drain_retries)
            if not got:
                return _timing_report(q, completed, clock, max_drain_retries)
            completed.extend(got)

    retry = 0
    while q.deq_count < q.enq_count and retry < max_drain_retries:
        got = lookaside_dequeue(q, q.enq_count - q.deq_count, clock)
        completed.extend([(desc, t, clock) for desc, t, _ in got])
        if q.deq_count < q.enq_count:
            clock += model.poll_interval
        retry += 1
    return _timing_report(q, completed, clock, max_drain_retries)


def run_lookaside_sequential(
    descriptors: list[DecodeDescriptor],
    model: LatencyModel,
    depth: int = DEFAULT_QUEUE_DEPTH,
) -> BackendReport:
    """One op at a time: enqueue, poll until it dequeues, then the next.

    Each op's wait polls at most DEFAULT_DRAIN_RETRIES times; an op still
    pending after that ends the run with a drain_shortfall failure state.
    """
    q = QueuePair(model=model, depth=depth)
    clock = 0.0
    completed = []
    for d in descriptors:
        lookaside_enqueue(q, d, clock)  # queue is empty between ops
        got, clock = _poll(q, 1, clock, DEFAULT_DRAIN_RETRIES)
        if not got:
            break
        completed.extend(got)
    return decoded(_timing_report(q, completed, clock, DEFAULT_DRAIN_RETRIES), descriptors)


def run_lookaside_bulk(
    descriptors: list[DecodeDescriptor],
    model: LatencyModel,
    depth: int = DEFAULT_QUEUE_DEPTH,
    max_drain_retries: int = DEFAULT_DRAIN_RETRIES,
) -> BackendReport:
    """lookaside_bulk_report plus the outcomes of the ops the drain delivered."""
    report = lookaside_bulk_report(descriptors, model, depth, max_drain_retries)
    return decoded(report, descriptors)
