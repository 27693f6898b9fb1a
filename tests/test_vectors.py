"""The batched transmit chain against the per-code-block oracle, stage by
stage and end to end, plus its memory bound and pinned golden output."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decodex.phy.vectors as vectors
from decodex.ldpc import CodeBlockParams, encode
from decodex.nr import (
    buffer_indices,
    code_block_bits,
    plan_transport_block,
    random_transport_block,
    rate_dematch,
    rate_match,
)
from decodex.phy import (
    ChannelConfig,
    dump_golden_vectors,
    generate_cell_vectors,
    modulate,
    prepare_tb_vectors,
    transmit,
)

from helpers import (
    code_block_bits_per_cb,
    generate_cell_vectors_per_cb,
    prepare_tb_vectors_per_cb,
)


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.tb.payload_bits, w.tb.payload_bits)
        assert (g.tb.mcs, g.tb.prb) == (w.tb.mcs, w.tb.prb)
        assert len(g.descriptors) == len(w.descriptors) == len(g.channel_llrs)
        for gd, wd in zip(g.descriptors, w.descriptors):
            assert (gd.cb_params, gd.max_iterations, gd.tb_id, gd.cb_id) == (
                wd.cb_params, wd.max_iterations, wd.tb_id, wd.cb_id)
            assert gd.llr.dtype == wd.llr.dtype == np.int8
            assert np.array_equal(gd.llr, wd.llr)
        for gl, wl in zip(g.channel_llrs, w.channel_llrs):
            assert gl.dtype == wl.dtype == np.int8
            assert np.array_equal(gl, wl)


# -- end to end --------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    mcs=st.integers(0, 27),
    prb=st.integers(1, 275),
    snr_db=st.sampled_from([-2.0, 0.0, 3.5, 10.0, 20.0, math.inf]),
    n_tb=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_cell_vectors_equal_the_per_cb_chain(mcs, prb, snr_db, n_tb, seed):
    _assert_same(generate_cell_vectors(mcs, prb, snr_db, n_tb, seed),
                 generate_cell_vectors_per_cb(mcs, prb, snr_db, n_tb, seed))


# (2, 261) and (27, 271) segment into 5 and 27 CBs whose last one has a
# larger e; (0, 2) gives one-CB BG2 zc=16 TBs, about 31 to a batch.
@pytest.mark.parametrize("mcs, prb, n_tb", [(2, 261, 2), (27, 271, 2), (0, 2, 40), (9, 7, 3)])
@pytest.mark.parametrize("bound", [1, vectors.MAX_BATCH_BITS, 10**8])
def test_output_does_not_depend_on_the_batch_bound(monkeypatch, mcs, prb, n_tb, bound):
    """One row per batch, the real bound, and a whole cell per batch (so a
    batch mixes CBs of several segmented TBs) all give the oracle's vectors."""
    monkeypatch.setattr(vectors, "MAX_BATCH_BITS", bound)
    _assert_same(generate_cell_vectors(mcs, prb, 6.0, n_tb, 77, max_iterations=9),
                 generate_cell_vectors_per_cb(mcs, prb, 6.0, n_tb, 77, max_iterations=9))


@pytest.mark.parametrize("mcs, prb", [(4, 10), (2, 261)])
def test_prepare_tb_vectors_equals_the_per_cb_chain(mcs, prb):
    tb = random_transport_block(mcs, prb, np.random.default_rng(3))
    _assert_same([prepare_tb_vectors(tb, 2.0, 99, tb_id=7, max_iterations=5)],
                 [prepare_tb_vectors_per_cb(tb, 2.0, 99, tb_id=7, max_iterations=5)])


def test_batches_stay_within_the_bound(monkeypatch):
    """Every encode call of a chain carries at most MAX_BATCH_BITS, counting
    each row as max(n_full, e), unless it is a single row."""
    shapes = []

    def recording(bits, params):
        shapes.append((len(bits), max(params.n_full, params.e)))
        return encode(bits, params)

    monkeypatch.setattr(vectors, "encode", recording)
    generate_cell_vectors(0, 2, 10.0, 100, 5)
    assert [rows for rows, _ in shapes] == [31, 31, 31, 7]
    generate_cell_vectors(17, 200, 10.0, 2, 5)
    assert all(rows == 1 or rows * width <= vectors.MAX_BATCH_BITS for rows, width in shapes)


def test_generation_peak_memory_stays_near_the_per_cb_chain():
    """The batched chain holds one batch of intermediates at a time, not a
    cell's: its traced peak stays within 1.1x the per-CB chain's."""
    generate_cell_vectors(27, 273, 20.0, 1, 1)  # warm the caches of both chains

    def peak(generate):
        tracemalloc.start()
        try:
            generate(27, 273, 20.0, 4, 2024)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(generate_cell_vectors) <= 1.1 * peak(generate_cell_vectors_per_cb)


# SHA-256 of dump_golden_vectors, computed before the chain was batched.
GOLDEN = [
    ((0, 2, -2.0, 5, 11), "056e99218b9cbadfeb2a9b334940d9b79646e42ab93aadc75b93bfb4b42a94ee"),
    ((17, 50, 10.0, 2, 12), "4b1c66c5933ac5879b5c5296b612689ec2bc4e10afd38a895ad59198f2ceca3d"),
]


@pytest.mark.parametrize("cell, digest", GOLDEN)
def test_golden_vectors_are_pinned(cell, digest):
    mcs, prb, snr_db, n_tb, seed = cell
    text = dump_golden_vectors(generate_cell_vectors(mcs, prb, snr_db, n_tb, seed), snr_db, seed)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- each stage: the rows of a batched call equal its 1-D calls -------------------------

def _rows(rng, n_rows, n):
    return rng.integers(0, 2, (n_rows, n), dtype=np.uint8)


@pytest.mark.parametrize("bg, zc, kb, n_filler", [(2, 16, 10, 8), (2, 36, 6, 0), (1, 384, 22, 12)])
def test_batched_stages_equal_their_row_calls(bg, zc, kb, n_filler):
    rng = np.random.default_rng(zc)
    base = CodeBlockParams(bg, zc, kb, n_filler)
    info = _rows(rng, 3, base.k)
    info[:, base.k - n_filler:] = 0
    cw = encode(info, base)
    assert cw.shape == (3, base.n_full)
    for e in (base.n_cb // 3, base.n_cb - n_filler, 2 * base.n_cb + 5):
        params = replace(base, e=e)
        tx = rate_match(cw, params)
        llrs = rng.integers(-128, 128, tx.shape, dtype=np.int8)
        soft = rate_dematch(llrs, params)
        for r in range(3):
            assert np.array_equal(cw[r], encode(info[r], base))
            assert np.array_equal(tx[r], rate_match(cw[r], params))
            assert np.array_equal(soft[r], rate_dematch(llrs[r], params))
            assert soft[r].dtype == rate_dematch(llrs[r], params).dtype == np.int8


@pytest.mark.parametrize("qm", [2, 4, 6, 8])
@pytest.mark.parametrize("n", [1, 7, 24, 101])
def test_batched_modulate_and_transmit_equal_their_row_calls(qm, n):
    rng = np.random.default_rng(n * qm)
    bits = _rows(rng, 4, n)
    symbols = modulate(bits, qm)
    assert symbols.shape == (4, -(-n // qm))
    channel = ChannelConfig(4.0, n)
    received = transmit(symbols, channel)
    for r in range(4):
        assert np.array_equal(symbols[r], modulate(bits[r], qm))
        # every row gets the one draw a 1-D call of that length gets
        assert np.array_equal(received[r], transmit(symbols[r], channel))


def test_code_blocks_of_several_tbs_stack_their_per_cb_blocks():
    for mcs, prb in [(0, 2), (9, 20), (2, 261)]:
        tbs = [random_transport_block(mcs, prb, np.random.default_rng(s)) for s in range(3)]
        plan = plan_transport_block(tbs[0])
        want = [b for tb in tbs for b in code_block_bits_per_cb(tb, plan)]
        assert np.array_equal(code_block_bits(tbs, plan), np.stack(want))
        assert np.array_equal(code_block_bits(tbs[1], plan), np.stack(want[plan.c:2 * plan.c]))


def test_buffer_indices_are_one_read_only_array_per_shape():
    base = CodeBlockParams(2, 36, 8, 10)
    first = buffer_indices(replace(base, e=100))
    assert buffer_indices(replace(base, e=900)) is first
    assert not first.flags.writeable
    assert buffer_indices(replace(base, n_filler=11)) is not first
