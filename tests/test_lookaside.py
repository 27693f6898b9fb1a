"""Discrete-event lookaside queue model."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decodex.backends import (
    LookasideModel,
    QueuePair,
    lookaside_dequeue,
    lookaside_enqueue,
    run_lookaside_bulk,
    run_lookaside_sequential,
)
from decodex.phy import generate_cell_vectors
from helpers import outcomes_of

_POOL = None


def _ops(n):
    global _POOL
    if _POOL is None or len(_POOL) < n:
        vecs = generate_cell_vectors(0, 2, 30.0, max(n, 64), seed=2)
        _POOL = [d for v in vecs for d in v.descriptors]
    return _POOL[:n]


@pytest.mark.parametrize("tpb", [0.0, 0.002])
def test_single_op_timeline(tpb):
    m = replace(LookasideModel(), transfer_per_byte=tpb)
    q = QueuePair(model=m)
    op = _ops(1)[0]
    assert lookaside_enqueue(q, op, now=0.0)
    t0 = m.transfer_per_byte * op.input_bytes
    expected = m.dma_overhead + t0 + m.op_service + m.return_overhead \
        + m.transfer_per_byte * op.output_bytes
    if tpb:
        assert t0 > 0
    assert q.fifo[0][2] == pytest.approx(expected)
    assert lookaside_dequeue(q, 1, now=expected - 0.5) == []
    got = lookaside_dequeue(q, 1, now=expected)
    assert len(got) == 1


def test_backpressure_at_depth():
    q = QueuePair(model=LookasideModel(), depth=2)
    ops = _ops(3)
    assert lookaside_enqueue(q, ops[0], 0.0)
    assert lookaside_enqueue(q, ops[1], 0.0)
    assert not lookaside_enqueue(q, ops[2], 0.0)


def test_back_to_back_ops_pipeline():
    """Second completion = first start + pipeline_ii + service + return."""
    m = LookasideModel()
    q = QueuePair(model=m)
    a, b = _ops(2)
    lookaside_enqueue(q, a, 0.0)
    lookaside_enqueue(q, b, 0.0)
    first_start = m.dma_overhead
    second = q.fifo[1][2]
    assert second == pytest.approx(first_start + m.pipeline_ii + m.op_service + m.return_overhead)


def test_drain_with_infinite_horizon_is_fifo():
    m = LookasideModel()
    q = QueuePair(model=m)
    ops = _ops(5)
    for op in ops:
        lookaside_enqueue(q, op, 0.0)
    got = lookaside_dequeue(q, 100, now=float("inf"))
    assert [g[0].tb_id for g in got] == [op.tb_id for op in ops]
    assert q.enq_count == q.deq_count == 5


def test_sequential_total_bounds():
    m = LookasideModel()
    ops = _ops(4)
    report = run_lookaside_sequential(ops, m, outcomes_of(ops))
    assert report.total_us >= len(ops) * (m.dma_overhead + m.op_service)
    assert report.enq_count == report.deq_count == 4


def test_bulk_equals_sequential_for_one_op():
    m = LookasideModel()
    outs = outcomes_of(_ops(1))
    seq = run_lookaside_sequential(_ops(1), m, outs)
    blk = run_lookaside_bulk(_ops(1), m, outs)
    assert seq.total_us == blk.total_us


def test_bulk_dominates_sequential():
    m = LookasideModel()
    for n in (1, 3, 10, 40):
        outs = outcomes_of(_ops(n))
        seq = run_lookaside_sequential(_ops(n), m, outs)
        blk = run_lookaside_bulk(_ops(n), m, outs)
        assert blk.total_us <= seq.total_us


def test_completion_order_is_fifo():
    report = run_lookaside_bulk(_ops(12), LookasideModel(), outcomes_of(_ops(12)))
    ids = [o.tb_id for o in report.outcomes]
    assert ids == sorted(ids)
    assert list(report.tb_latency_us) == [d.tb_id for d in _ops(12)]  # dequeue order


def test_drain_retry_cap_reports_shortfall():
    report = run_lookaside_bulk(_ops(6), LookasideModel(), outcomes_of(_ops(6)),
                                max_drain_retries=3)
    assert report.failure is not None
    assert "drain_shortfall" in report.failure
    assert report.enq_count != report.deq_count
    assert len(report.outcomes) == report.deq_count  # only the delivered ops


def test_small_queue_depth_does_not_deadlock():
    report = run_lookaside_bulk(_ops(20), LookasideModel(), outcomes_of(_ops(20)), depth=4)
    assert report.failure is None
    assert report.enq_count == report.deq_count == 20


def test_virtual_reports_are_bit_reproducible():
    a = run_lookaside_bulk(_ops(9), LookasideModel(), outcomes_of(_ops(9)))
    b = run_lookaside_bulk(_ops(9), LookasideModel(), outcomes_of(_ops(9)))
    assert a.tb_latency_us == b.tb_latency_us
    assert a.total_us == b.total_us
    for oa, ob in zip(a.outcomes, b.outcomes):
        assert np.array_equal(oa.bits, ob.bits)


_time_fields = st.sampled_from(
    ["transfer_per_byte", "dma_overhead", "return_overhead", "op_service",
     "pipeline_ii", "poll_interval"]
)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 12),
    _time_fields,
    st.floats(0.125, 8.0),
)
def test_total_time_monotone_in_cost_fields(n, field, bump):
    """Raising any time-cost field never speeds the run up."""
    base = LookasideModel()
    raised = replace(base, **{field: getattr(base, field) + bump})
    if raised.pipeline_ii > raised.op_service:
        raised = replace(raised, op_service=raised.pipeline_ii)
    ops = _ops(n)
    outs = outcomes_of(ops)
    for runner in (run_lookaside_sequential, run_lookaside_bulk):
        assert runner(ops, raised, outs).total_us >= runner(ops, base, outs).total_us


def test_functional_output_matches_direct_decode():
    from decodex.ldpc import decode_layered_minsum

    ops = _ops(3)
    report = run_lookaside_bulk(ops, LookasideModel(), outcomes_of(ops))
    by_key = {(o.tb_id, o.cb_id): o for o in report.outcomes}
    for d in ops:
        direct = decode_layered_minsum(d.llr, d.cb_params, d.max_iterations)
        assert np.array_equal(by_key[(d.tb_id, d.cb_id)].bits, direct.bits)
