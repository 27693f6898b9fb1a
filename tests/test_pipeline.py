"""Transport-block descriptor fan-out and full-chain identity."""

import dataclasses

import numpy as np
import pytest

from decodex.ldpc import decode_layered_minsum
from decodex.nr import (
    build_tb_descriptors,
    make_transport_block,
    mcs_lookup,
    num_coded_bits,
    plan_transport_block,
    random_transport_block,
    reassemble,
    split_coded_bits,
)
from decodex.phy import generate_cell_vectors, prepare_tb_vectors


def _tb_of_size(b, mcs=9, prb=100):
    rng = np.random.default_rng(b)
    return make_transport_block(rng.integers(0, 2, b, dtype=np.uint8), mcs, prb)


def test_single_block_tb_yields_one_descriptor():
    descs = build_tb_descriptors(_tb_of_size(8424))
    assert len(descs) == 1


def test_split_tb_descriptors_are_contiguous():
    descs = build_tb_descriptors(_tb_of_size(8432))
    assert len(descs) == 2


def test_descriptor_is_frozen_and_checks_its_llr_length():
    desc = build_tb_descriptors(_tb_of_size(8424))[0]
    n_full = desc.cb_params.n_full
    with pytest.raises(dataclasses.FrozenInstanceError):
        desc.llr = np.zeros(3, dtype=np.int8)
    with pytest.raises(ValueError, match="n_full"):
        dataclasses.replace(desc, llr=np.zeros(3, dtype=np.int8))
    filled = dataclasses.replace(desc, llr=np.zeros(n_full, dtype=np.int8))
    assert filled.llr.shape == (n_full,) and desc.llr is None


def test_descriptor_capacity_covers_payload():
    tb = _tb_of_size(8432)
    descs = build_tb_descriptors(tb)
    plan = plan_transport_block(tb)
    cap = sum(p.k - p.n_filler - (24 if plan.c > 1 else 0) for p in plan.params)
    assert cap >= tb.b + 24


def test_e_split_even_with_remainder_to_last():
    assert split_coded_bits(100, 3) == [33, 33, 34]
    assert split_coded_bits(99, 3) == [33, 33, 33]
    tb = _tb_of_size(20688)
    descs = build_tb_descriptors(tb)
    total = num_coded_bits(tb.prb, mcs_lookup(tb.mcs))
    assert sum(d.cb_params.e for d in descs) == total
    assert max(d.cb_params.e for d in descs) - min(d.cb_params.e for d in descs) <= total % len(descs) + 1


@pytest.mark.parametrize(
    "mcs,prb",
    [
        (4, 8),     # BG2, C=1, QPSK
        (1, 80),    # BG2, C=2
        (9, 100),   # BG1, C=3, QPSK
        (10, 6),    # BG2, 16QAM
        (15, 60),   # BG1, 16QAM
        (17, 4),    # BG2, 64QAM
        (19, 50),   # BG1, 64QAM
    ],
)
def test_full_chain_identity_at_high_snr(mcs, prb):
    vecs = generate_cell_vectors(mcs, prb, snr_db=30.0, n_tb=2, seed=90)
    for vec in vecs:
        decoded = [
            decode_layered_minsum(d.llr, d.cb_params, d.max_iterations).bits
            for d in vec.descriptors
        ]
        result = reassemble(decoded, vec.tb)
        assert result.ok
        assert np.array_equal(result.payload_bits, vec.tb.payload_bits)


@pytest.mark.parametrize("mcs,prb", [(4, 8), (1, 80), (9, 100)])
def test_full_chain_identity_noiseless(mcs, prb):
    """Infinite-SNR identity: direct +/-16 soft mapping, no channel."""
    from decodex.ldpc import encode
    from decodex.nr import code_block_bits, rate_dematch, rate_match
    from decodex.phy import bits_to_llrs

    tb = random_transport_block(mcs, prb, np.random.default_rng(55))
    plan = plan_transport_block(tb)
    decoded = []
    for desc, block in zip(build_tb_descriptors(tb), code_block_bits(tb, plan)):
        coded = rate_match(encode(block, desc.cb_params), desc.cb_params)
        soft = rate_dematch(bits_to_llrs(coded), desc.cb_params)
        decoded.append(decode_layered_minsum(soft, desc.cb_params).bits)
    result = reassemble(decoded, tb)
    assert result.ok and np.array_equal(result.payload_bits, tb.payload_bits)


def test_reassemble_flags_corruption():
    vec = prepare_tb_vectors(_tb_of_size(8432), snr_db=30.0, seed=1)
    decoded = [
        decode_layered_minsum(d.llr, d.cb_params, d.max_iterations).bits
        for d in vec.descriptors
    ]
    decoded[0] = decoded[0].copy()
    decoded[0][5] ^= 1
    assert not reassemble(decoded, vec.tb).ok


def test_vector_generation_is_pure():
    a = generate_cell_vectors(4, 10, 6.0, 2, seed=31)
    b = generate_cell_vectors(4, 10, 6.0, 2, seed=31)
    for va, vb in zip(a, b):
        assert np.array_equal(va.tb.payload_bits, vb.tb.payload_bits)
        for da, db in zip(va.descriptors, vb.descriptors):
            assert np.array_equal(da.llr, db.llr)


def test_per_tb_seeds_differ():
    vecs = generate_cell_vectors(4, 10, 6.0, 2, seed=31)
    assert not np.array_equal(vecs[0].tb.payload_bits, vecs[1].tb.payload_bits)


def test_payload_must_be_byte_aligned():
    with pytest.raises(ValueError):
        make_transport_block(np.zeros(10, dtype=np.uint8), 0, 1)
    with pytest.raises(ValueError):
        make_transport_block(np.zeros(0, dtype=np.uint8), 0, 1)
