"""Properties of the virtual-clock timing models over random models and loads.

Every run ends with finite, non-negative times; a lookaside drain with the
default retry budget delivers every op it accepted; no model reports less
total time for more work; sequential lookaside dispatch is the bulk queue at
depth 1; and every field of a default model changes its device's timing.
"""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decodex.backends import (
    DEFAULT_MODELS,
    InlineModel,
    LookasideModel,
    inline_timing_parallel,
    inline_timing_sequential,
    lookaside_bulk_report,
    run_lookaside_bulk,
    run_lookaside_sequential,
)
from decodex.phy import generate_cell_vectors
from helpers import outcomes_of

N_MAX = 8
_OPS = [d for v in generate_cell_vectors(0, 2, 30.0, N_MAX, seed=5) for d in v.descriptors]
_OUTS = outcomes_of(_OPS)  # one code block per op: _OUTS[:n] belongs to _OPS[:n]

_us = st.floats(0.0, 50.0)


@st.composite
def lookaside_models(draw):
    op_service = draw(st.floats(1.0, 50.0))
    return LookasideModel(
        transfer_per_byte=draw(st.floats(0.0, 0.01)),
        dma_overhead=draw(_us),
        return_overhead=draw(_us),
        pipeline_ii=draw(st.floats(0.0, op_service)),
        op_service=op_service,
        poll_interval=draw(st.floats(0.25, 10.0)),
    )


@st.composite
def inline_models(draw):
    return InlineModel(
        transfer_per_byte=draw(st.floats(0.0, 0.01)),
        dma_overhead=draw(_us),
        launch_overhead=draw(_us),
        inter_launch_gap=draw(_us),
        per_codeword_time=draw(_us),
        capacity=draw(st.integers(1, 512)),
        min_stream_slots=draw(st.integers(1, 64)),
    )


def _finite_non_negative(*values):
    return all(math.isfinite(v) and v >= 0 for v in values)


@settings(max_examples=30, deadline=None)
@given(lookaside_models(), st.integers(0, N_MAX - 1), st.integers(1, N_MAX))
def test_lookaside_runs_are_finite_conserved_and_monotone(model, n, depth):
    runs = [
        lambda ops: run_lookaside_sequential(ops, model, _OUTS[: len(ops)]),
        lambda ops: run_lookaside_bulk(ops, model, _OUTS[: len(ops)], depth=depth),
    ]
    for run in runs:
        fewer, more = run(_OPS[:n]), run(_OPS[: n + 1])
        for report in (fewer, more):
            assert report.failure is None
            assert report.enq_count == report.deq_count
            assert _finite_non_negative(report.total_us, *report.tb_latency_us.values())
        assert more.total_us >= fewer.total_us


def _report_fields(report):
    values = {f.name: getattr(report, f.name) for f in fields(report)}
    values["outcomes"] = [
        (o.tb_id, o.cb_id, o.bits.tobytes(), o.iterations_used, o.converged)
        for o in report.outcomes
    ]
    return values


@settings(max_examples=30, deadline=None)
@given(lookaside_models(), st.integers(0, N_MAX))
def test_sequential_lookaside_is_the_bulk_queue_at_depth_one(model, n):
    sequential = run_lookaside_sequential(_OPS[:n], model, _OUTS[:n])
    bulk = run_lookaside_bulk(_OPS[:n], model, _OUTS[:n], depth=1)
    assert _report_fields(sequential) == _report_fields(bulk)


def _shaped(counts):
    """One TB per count, each of that many copies of one op's descriptor."""
    return [[_OPS[i % N_MAX]] * c for i, c in enumerate(counts)]


@settings(max_examples=200, deadline=None)
@given(inline_models(), st.lists(st.integers(1, 600), max_size=12), st.integers(1, 600))
def test_inline_timing_is_finite_and_monotone(model, counts, extra):
    for timing in (inline_timing_sequential, inline_timing_parallel):
        fewer, more = timing(_shaped(counts), model), timing(_shaped(counts + [extra]), model)
        for t in (fewer, more):
            assert _finite_non_negative(t.kernel_us, t.total_us, t.utilization, *t.tb_us)
        assert more.total_us >= fewer.total_us


def _timing(kind, model):
    """The timing a device reports: lookaside total and per-TB latency at
    queue depth 2; inline total and utilization of both launch modes over
    three TBs and over one codeword."""
    if kind == "lookaside":
        report = lookaside_bulk_report(_OPS[:4], model, depth=2)
        return report.total_us, report.tb_latency_us
    loads = ([[d] for d in _OPS[:3]], [[_OPS[0]]])
    runs = (inline_timing_parallel, inline_timing_sequential)
    return [(t.total_us, t.utilization) for t in (run(b, model) for run in runs for b in loads)]


@pytest.mark.parametrize(
    "kind, name", [(kind, f.name) for kind, m in DEFAULT_MODELS.items() for f in fields(m)]
)
def test_every_model_field_changes_its_timing(kind, name):
    """A model holds no field its device's timing does not read."""
    model = DEFAULT_MODELS[kind]
    bumped = replace(model, **{name: getattr(model, name) + 1})
    assert _timing(kind, bumped) != _timing(kind, model)
