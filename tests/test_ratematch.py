"""Circular-buffer rate matching and soft combining."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decodex.ldpc import CodeBlockParams, ConfigurationError, encode
from decodex.nr import rate_dematch, rate_match
from decodex.nr.ratematch import buffer_indices


def _params(e=0, n_filler=2):
    return CodeBlockParams(2, 15, 6, n_filler=n_filler, e=e)


def _codeword(params, seed=0):
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, params.k, dtype=np.uint8)
    if params.n_filler:
        info[params.k - params.n_filler:] = 0
    return encode(info, params)


def test_identity_read_covers_buffer_once():
    p = _params()
    idx = buffer_indices(p)
    p = replace(p, e=idx.size)
    cw = _codeword(p)
    out = rate_match(cw, p)
    assert np.array_equal(out, cw[idx])


def test_double_wrap_repeats_every_bit_twice():
    p = _params()
    idx = buffer_indices(p)
    p = replace(p, e=2 * idx.size)
    out = rate_match(_codeword(p), p)
    assert np.array_equal(out[: idx.size], out[idx.size:])


def test_filler_and_punctured_positions_are_skipped():
    p = _params()
    idx = buffer_indices(p)
    assert idx.min() >= 2 * p.zc
    filler = np.arange(p.k - p.n_filler, p.k)
    assert not np.isin(filler, idx).any()
    assert idx.size == p.n_cb - p.n_filler


def test_first_bits_walk_from_2zc():
    """E=120 on the small BG2 block reads the first 120 post-puncture
    non-filler positions, by an explicit index walk."""
    p = replace(_params(), e=120)
    cw = _codeword(p, seed=3)
    walked = []
    pos = 2 * p.zc
    while len(walked) < 120:
        in_filler = p.k - p.n_filler <= pos < p.k
        if not in_filler:
            walked.append(cw[pos])
        pos += 1
    assert np.array_equal(rate_match(cw, p), np.array(walked, dtype=cw.dtype))


def test_dematch_restores_transmitted_positions():
    p = _params()
    idx = buffer_indices(p)
    p = replace(p, e=idx.size)
    soft = rate_dematch(np.full(p.e, 16, dtype=np.int8), p)
    assert np.all(soft[idx] == 16)
    assert np.all(soft[: 2 * p.zc] == 0)
    assert np.all(soft[p.k - p.n_filler:p.k] == 127)


def test_repetition_combining_doubles_magnitude():
    p = _params()
    idx = buffer_indices(p)
    p = replace(p, e=2 * idx.size)
    soft = rate_dematch(np.full(p.e, 16, dtype=np.int8), p)
    assert np.all(soft[idx] == 32)


def test_combining_saturates_symmetrically():
    p = _params()
    idx = buffer_indices(p)
    p = replace(p, e=2 * idx.size)
    soft = rate_dematch(np.full(p.e, 100, dtype=np.int8), p)
    assert np.all(soft[idx] == 127)
    soft = rate_dematch(np.full(p.e, -100, dtype=np.int8), p)
    assert np.all(soft[idx] == -127)
    assert soft.min() >= -127  # -128 never occurs


def test_partial_transmission_leaves_untransmitted_zero():
    p = replace(_params(), e=40)
    soft = rate_dematch(np.full(40, 9, dtype=np.int8), p)
    idx = buffer_indices(p)
    assert np.all(soft[idx[:40]] == 9)
    assert np.all(soft[idx[40:]] == 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4000), st.integers(0, 50))
def test_match_dematch_adjoint_index_walk(e, filler_seed):
    """Every transmitted soft value lands exactly where rate_match read it."""
    p = CodeBlockParams(2, 15, 6, n_filler=filler_seed % 30, e=e)
    idx = buffer_indices(p)
    distinct = np.arange(1, e + 1, dtype=np.int32)
    soft = rate_dematch(np.clip(distinct, 0, 90).astype(np.int8), p)
    first_pass = min(e, idx.size)
    expect = np.clip(distinct[:first_pass], 0, 90)
    if e <= idx.size:
        assert np.array_equal(soft[idx[:first_pass]], expect.astype(np.int8))
    else:
        assert soft[idx[0]] >= expect[0]  # combined afterwards


def test_errors():
    p = _params(e=0)
    cw = np.zeros(p.n_full, dtype=np.uint8)
    with pytest.raises(ConfigurationError):
        rate_match(cw, p)
    p = replace(p, e=10)
    with pytest.raises(ValueError):
        rate_match(cw[:-1], p)
    with pytest.raises(ValueError):
        rate_dematch(np.zeros(9, dtype=np.int8), p)
