"""Edge inputs to the virtual-clock models: every one ends, with a result or
a named error, and no input gives phantom work."""

import math
import signal
from contextlib import contextmanager
from dataclasses import fields, replace

import pytest

from decodex.backends import (
    InlineModel,
    LookasideModel,
    inline_decode_parallel,
    inline_decode_sequential,
    inline_timing_parallel,
    inline_timing_sequential,
    run_lookaside_bulk,
    run_lookaside_sequential,
)
from decodex.phy import generate_cell_vectors
from helpers import outcomes_of


@contextmanager
def deadline(seconds: int):
    """Turn a hang into a test failure instead of a stuck suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _ops(n):
    return [d for v in generate_cell_vectors(0, 2, 30.0, n, seed=2) for d in v.descriptors]


@pytest.mark.parametrize("runner", [run_lookaside_bulk])
def test_zero_queue_depth_is_rejected(runner):
    ops = _ops(2)
    with deadline(10), pytest.raises(ValueError, match="depth"):
        runner(ops, LookasideModel(), outcomes_of(ops), depth=0)


_MODELS = (LookasideModel(), InlineModel())


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted({f.name for m in _MODELS for f in fields(m)}))
def test_non_finite_model_fields_are_rejected(name, value):
    """Each model that has the field rejects the value; a shared field is
    checked on both."""
    for model in (m for m in _MODELS if hasattr(m, name)):
        with pytest.raises(ValueError, match=name):
            replace(model, **{name: value})


def test_nan_poll_interval_cannot_reach_the_sequential_runner():
    with deadline(10), pytest.raises(ValueError, match="poll_interval"):
        run_lookaside_sequential(_ops(1), replace(LookasideModel(), poll_interval=math.nan), [])


@pytest.mark.parametrize("timing", [inline_timing_sequential, inline_timing_parallel])
def test_empty_inline_timing_is_zero_work(timing):
    t = timing([], InlineModel())
    assert (t.kernel_us, t.total_us, t.utilization) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "run",
    [
        lambda: inline_decode_sequential([], InlineModel(), []),
        lambda: inline_decode_parallel([], InlineModel(), []),
    ],
    ids=["sequential", "parallel"],
)
def test_empty_inline_run_is_zero_work(run):
    report = run()
    assert report.total_us == 0.0
    assert report.utilization == 0.0
    assert report.tb_latency_us == {} and report.outcomes == ()


def test_tiny_poll_interval_sequential_wait_is_bounded():
    """A wait polls at most DEFAULT_DRAIN_RETRIES times, then reports a shortfall."""
    model = replace(LookasideModel(), poll_interval=1e-9)
    with deadline(10):
        report = run_lookaside_sequential(_ops(1), model, outcomes_of(_ops(1)))
    assert "drain_shortfall" in report.failure
    assert (report.enq_count, report.deq_count) == (1, 0)
    assert report.outcomes == ()


def test_tiny_poll_interval_backpressure_wait_is_bounded():
    model = replace(LookasideModel(), poll_interval=1e-9)
    with deadline(10):
        report = run_lookaside_bulk(_ops(3), model, outcomes_of(_ops(3)), depth=1)
    assert "drain_shortfall" in report.failure
    assert report.enq_count != report.deq_count
    assert report.outcomes == ()
