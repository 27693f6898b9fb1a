"""MCS table properties and simplified TB sizing."""

import pytest

from decodex.nr import compute_tb_size, mcs_lookup

TABLE = [mcs_lookup(i) for i in range(28)]


def test_index_zero_entry():
    e = mcs_lookup(0)
    assert e.qm == 2 and e.rate_num == 120


def test_modulation_step_ups_drop_the_rate():
    assert mcs_lookup(10).qm == 4
    assert mcs_lookup(10).rate_num < mcs_lookup(9).rate_num
    assert mcs_lookup(17).qm == 6
    assert mcs_lookup(17).rate_num < mcs_lookup(16).rate_num


def test_sorted_and_dense_indices():
    assert [e.index for e in TABLE] == list(range(28))


def test_spectral_efficiency_non_decreasing_within_each_qm_run():
    """Monotone SE inside each contiguous modulation run.

    The bundled table's only SE dip sits exactly at a Qm step-up (index
    16 -> 17), where the rate intentionally drops; within a run the
    efficiency never decreases.
    """
    for prev, cur in zip(TABLE, TABLE[1:]):
        if prev.qm == cur.qm:
            assert cur.qm * cur.rate >= prev.qm * prev.rate
        else:
            assert cur.rate_num < prev.rate_num


def test_rate_bounds():
    for e in TABLE:
        assert 0 < e.rate < 1


@pytest.mark.parametrize("index", [-1, 28, 100])
def test_out_of_range_lookup_rejected(index):
    with pytest.raises(ValueError):
        mcs_lookup(index)


def test_tb_size_reference_value():
    # 50 PRB at Qm=2, rate 308/1024: N_RE = 7800, raw 4692.18 -> 4688
    assert compute_tb_size(50, mcs_lookup(4)) == 4688


def test_tb_size_floor():
    b = compute_tb_size(1, mcs_lookup(0))
    assert b >= 24 and b % 8 == 0


def test_tb_size_scales_with_prb():
    e = mcs_lookup(7)
    b50 = compute_tb_size(50, e)
    b200 = compute_tb_size(200, e)
    assert abs(b200 - 4 * b50) <= 32  # linear up to one byte-rounding step per factor


def test_tb_size_rejects_bad_prb():
    with pytest.raises(ValueError):
        compute_tb_size(0, mcs_lookup(0))
