"""Layered min-sum decoder behaviour."""

import numpy as np
import pytest

from decodex.ldpc import (
    MAX_ITERATIONS,
    CodeBlockParams,
    decode_layered_minsum,
    encode,
    expand_base_graph,
    syndrome_check,
)
from decodex.phy import bits_to_llrs

from helpers import error_patterns, ml_codeword, toy_code_table


def _noiseless_llrs(codeword, magnitude=127):
    return bits_to_llrs(codeword, magnitude)


@pytest.mark.parametrize("bg,zc,set_index,kb", [(1, 64, 0, 22), (2, 36, 4, 10), (0, 4, 0, 4)])
def test_noiseless_converges_in_one_iteration(bg, zc, set_index, kb):
    params = CodeBlockParams(bg, zc, kb)
    rng = np.random.default_rng(11)
    info = rng.integers(0, 2, params.k, dtype=np.uint8)
    res = decode_layered_minsum(_noiseless_llrs(encode(info, params)), params)
    assert res.converged
    assert res.iterations_used == 1
    assert np.array_equal(res.bits, info)


def test_decoder_is_deterministic():
    params = CodeBlockParams(2, 36, 10)
    rng = np.random.default_rng(5)
    llr = rng.integers(-40, 40, params.n_full).astype(np.int8)
    a = decode_layered_minsum(llr, params, max_iterations=8)
    b = decode_layered_minsum(llr, params, max_iterations=8)
    assert np.array_equal(a.bits, b.bits)
    assert a.iterations_used == b.iterations_used
    assert a.converged == b.converged


def test_converged_implies_zero_syndrome():
    params = CodeBlockParams(2, 36, 10)
    pcm = expand_base_graph(2, 36, 4)
    rng = np.random.default_rng(17)
    info = rng.integers(0, 2, params.k, dtype=np.uint8)
    cw = encode(info, params)
    llr = _noiseless_llrs(cw, 16).astype(np.int32)
    noise = rng.integers(-8, 9, params.n_full)
    llr = np.clip(llr + noise, -127, 127).astype(np.int8)
    res = decode_layered_minsum(llr, params)
    if res.converged:
        assert syndrome_check(pcm, encode(res.bits, params))


def test_single_error_corrected_on_standard_graph():
    params = CodeBlockParams(2, 36, 10)
    rng = np.random.default_rng(23)
    info = rng.integers(0, 2, params.k, dtype=np.uint8)
    llr = _noiseless_llrs(encode(info, params), 16)
    llr[100] = -llr[100]
    res = decode_layered_minsum(llr, params)
    assert res.converged
    assert np.array_equal(res.bits, info)


def test_non_convergence_is_not_an_error():
    params = CodeBlockParams(2, 36, 10)
    rng = np.random.default_rng(29)
    llr = rng.integers(-3, 4, params.n_full).astype(np.int8)  # garbage input
    res = decode_layered_minsum(llr, params, max_iterations=2)
    assert res.iterations_used <= 2
    assert isinstance(res.converged, bool)


def test_forced_iterations_run_to_the_limit():
    params = CodeBlockParams(2, 36, 10)
    info = np.zeros(params.k, dtype=np.uint8)
    llr = _noiseless_llrs(encode(info, params), 16)
    res = decode_layered_minsum(llr, params, max_iterations=5, early_termination=False)
    assert res.iterations_used == 5
    assert res.converged  # syndrome still reported truthfully


def test_preconditions_rejected():
    params = CodeBlockParams(2, 36, 10)
    llr = np.zeros(params.n_full, dtype=np.int8)
    with pytest.raises(ValueError):
        decode_layered_minsum(llr[:-1], params)
    with pytest.raises(ValueError):
        decode_layered_minsum(llr, params, max_iterations=0)
    with pytest.raises(ValueError):
        decode_layered_minsum(llr, params, max_iterations=2**32 + 1)  # a C int would wrap to 1


def test_iteration_cap_is_bbdev_uint8_iter_max():
    params = CodeBlockParams(2, 16, 10)
    llr = np.full(params.n_full, 100, dtype=np.int8)  # the all-zero codeword
    assert MAX_ITERATIONS == 255
    assert decode_layered_minsum(llr, params, max_iterations=255).converged
    with pytest.raises(ValueError, match=r"\[1, 255\]"):
        decode_layered_minsum(llr, params, max_iterations=256)


def test_toy_weight1_patterns_match_exhaustive_ml():
    """Min-sum equals brute-force ML on every single-error pattern (zc=4)."""
    params, codewords, pm = toy_code_table(4)
    n = params.n_full
    for pos in error_patterns(n, 1):
        llr = np.full(n, 16, dtype=np.int8)
        llr[list(pos)] = -16
        ml_idx = ml_codeword(pm, llr)
        assert ml_idx is not None, f"weight-1 pattern {pos} has an ML tie"
        res = decode_layered_minsum(llr, params)
        assert res.converged
        assert np.array_equal(encode(res.bits, params), codewords[ml_idx]), pos


def test_mean_iterations_track_snr():
    """Poorer channels need more sweeps (checked on a small AWGN batch)."""
    from decodex.phy import ChannelConfig, demap_llr, modulate, transmit

    params = CodeBlockParams(2, 52, 10)
    rng = np.random.default_rng(31)
    means = []
    for snr_db in (12.0, 4.0, 1.0):
        iters = []
        for trial in range(12):
            info = rng.integers(0, 2, params.k, dtype=np.uint8)
            sym = modulate(encode(info, params), 2)
            rx = transmit(sym, ChannelConfig(snr_db, 1000 + trial))
            llr = demap_llr(rx, 2, 10 ** (-snr_db / 10))[: params.n_full]
            res = decode_layered_minsum(llr, params, max_iterations=12)
            iters.append(res.iterations_used)
        means.append(np.mean(iters))
    assert means[0] <= means[1] <= means[2]
    assert means[0] < means[2]


@pytest.mark.parametrize(
    "make_llr",
    [
        lambda n: np.full(n, 0.9),
        lambda n: np.full(n, np.nan),
        lambda n: np.full(n, 5_000_000_000),
        lambda n: np.full(n, 128, dtype=np.int16),
        lambda n: np.full(n, -129),
    ],
    ids=["float", "nan", "int64-wraps-int32", "above-int8", "below-int8"],
)
def test_unrepresentable_llrs_rejected(make_llr):
    """Floats used to truncate (0.9 -> 0, "converged"), NaN to become INT_MIN
    and 5e9 to wrap; the decoder takes integers in the int8 range only."""
    params = CodeBlockParams(2, 36, 10)
    with pytest.raises(ValueError, match="LLRs must"):
        decode_layered_minsum(make_llr(params.n_full), params)


def test_int8_range_llrs_decode_alike_in_any_integer_dtype():
    params = CodeBlockParams(2, 36, 10)
    rng = np.random.default_rng(41)
    llr = rng.integers(-128, 128, params.n_full).astype(np.int8)
    llr[:2] = (-128, 127)
    want = decode_layered_minsum(llr, params, max_iterations=6)
    for dtype in (np.int16, np.int32, np.int64):
        got = decode_layered_minsum(llr.astype(dtype), params, max_iterations=6)
        assert np.array_equal(got.bits, want.bits)
        assert (got.iterations_used, got.converged) == (want.iterations_used, want.converged)
