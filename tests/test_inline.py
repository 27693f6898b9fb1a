"""Inline launch-model timing and utilization."""

import math
from dataclasses import replace

import numpy as np
import pytest

from decodex.backends import (
    DEFAULT_MODELS,
    InlineModel,
    inline_decode_parallel,
    inline_decode_sequential,
    inline_timing_parallel,
    inline_timing_sequential,
)
from decodex.phy import generate_cell_vectors
from helpers import outcomes_of


def _batches(n_tb, mcs=4, prb=10, seed=3):
    vecs = generate_cell_vectors(mcs, prb, 30.0, n_tb, seed)
    return [list(v.descriptors) for v in vecs]


def _outcomes(batches):
    return outcomes_of(d for b in batches for d in b)


_CODEWORD = _batches(1)[0][0]


def _shaped(counts):
    """One TB per count, each of that many codewords of one descriptor shape."""
    return [[_CODEWORD] * c for c in counts]


def test_one_codeword_launch_cost():
    m = InlineModel()
    timing = inline_timing_sequential(_shaped([1]), m)
    assert timing.kernel_us == m.launch_overhead + m.per_codeword_time


def test_sequential_launch_summation_without_gap():
    """With no re-orchestration gap the total is the plain launch sum."""
    m = replace(InlineModel(), inter_launch_gap=0.0)
    c = 3
    timing = inline_timing_sequential(_shaped([c] * 10), m)
    per = m.launch_overhead + math.ceil(c / m.capacity) * m.per_codeword_time
    assert timing.kernel_us == pytest.approx(10 * per)


def test_sequential_gap_applies_between_launches():
    m = InlineModel()
    t1 = inline_timing_sequential(_shaped([1]), m).kernel_us
    t2 = inline_timing_sequential(_shaped([1, 1]), m).kernel_us
    assert t2 == pytest.approx(2 * t1 + m.inter_launch_gap)


def test_parallel_equals_sequential_for_single_tb():
    m = InlineModel()
    batches = _batches(1)
    outs = _outcomes(batches)
    seq = inline_decode_sequential(batches, m, outs)
    par = inline_decode_parallel(batches, m, outs)
    assert seq.total_us == pytest.approx(par.total_us)
    assert seq.utilization == pytest.approx(par.utilization)


def test_parallel_kernel_never_slower():
    m = InlineModel()
    for n in (1, 2, 5, 8):
        batches = _shaped([2] * n)
        seq = inline_timing_sequential(batches, m)
        par = inline_timing_parallel(batches, m)
        assert par.kernel_us <= seq.kernel_us


def test_parallel_wave_count_rounds_up():
    m = replace(InlineModel(), capacity=4, min_stream_slots=1)
    timing = inline_timing_parallel(_shaped([3, 3, 3]), m)  # 9 codewords -> 3 waves
    assert timing.kernel_us == m.launch_overhead + 3 * m.per_codeword_time


def test_utilization_linear_in_tb_count_until_capacity():
    m = replace(InlineModel(), capacity=64, min_stream_slots=16)
    utils = [inline_timing_parallel(_shaped([1] * n), m).utilization for n in (1, 2, 3, 4, 5)]
    assert utils[:4] == pytest.approx([0.25, 0.5, 0.75, 1.0])
    assert utils[4] == 1.0  # capped at capacity


def test_sequential_utilization_constant_in_tb_count():
    m = InlineModel()
    u1 = inline_timing_sequential(_shaped([2]), m).utilization
    u8 = inline_timing_sequential(_shaped([2] * 8), m).utilization
    assert u1 == pytest.approx(u8)


def test_functional_equivalence_and_ordering():
    from decodex.ldpc import decode_layered_minsum

    batches = _batches(3)
    m = InlineModel()
    outs = _outcomes(batches)
    par = inline_decode_parallel(batches, m, outs)
    seq = inline_decode_sequential(batches, m, outs)
    for a, b in zip(par.outcomes, seq.outcomes):
        assert (a.tb_id, a.cb_id) == (b.tb_id, b.cb_id)
        assert np.array_equal(a.bits, b.bits)
    d = batches[0][0]
    direct = decode_layered_minsum(d.llr, d.cb_params, d.max_iterations)
    assert np.array_equal(par.outcomes[0].bits, direct.bits)


def test_unified_variant_zeroes_transfer_costs():
    m = DEFAULT_MODELS["inline-unified"]
    assert m.transfer_per_byte == 0.0
    assert m.dma_overhead == 0.0
    batches = _batches(2)
    outs = _outcomes(batches)
    unified = inline_decode_parallel(batches, m, outs)
    inline = inline_decode_parallel(batches, InlineModel(), outs)
    assert unified.total_us < inline.total_us  # transfers removed
    kernel_only = inline_timing_parallel(batches, m).kernel_us
    assert unified.total_us == pytest.approx(kernel_only)
