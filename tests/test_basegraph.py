"""Base-graph table loading and lifted expansion."""

import numpy as np
import pytest

from decodex.ldpc import (
    BG_DIMS,
    LIFTING_SETS,
    ConfigurationError,
    expand_base_graph,
    get_base_graph,
    set_index_for_zc,
)
from decodex.ldpc.basegraph import STANDARD_ENTRY_COUNTS, _parse_bg_file

from helpers import SMALLEST_PER_SET, base_graph_h


def test_bundled_dims_and_counts():
    for bg_id, count in STANDARD_ENTRY_COUNTS.items():
        bg = get_base_graph(bg_id)
        rows, cols, kb = BG_DIMS[bg_id]
        assert bg.rows == rows and bg.cols == cols and bg.kb == kb
        assert len(bg.entries) == count


def test_every_entry_has_8_shift_sets():
    for bg_id in (0, 1, 2):
        for shifts in get_base_graph(bg_id).entries.values():
            assert len(shifts) == 8
            assert all(s >= 0 for s in shifts)


def test_bg2_zc2_dimensions():
    pcm = expand_base_graph(2, 2, 0)
    assert (pcm.n_rows, pcm.n_cols) == (84, 104)


@pytest.mark.parametrize("bg_id,zc,set_index", [(1, 2, 0), (1, 384, 1), (2, 52, 6), (2, 15, 7)])
def test_expansion_dimensions(bg_id, zc, set_index):
    pcm = expand_base_graph(bg_id, zc, set_index)
    rows, cols, _ = BG_DIMS[bg_id]
    assert pcm.n_rows == rows * zc
    assert pcm.n_cols == cols * zc


def test_nonzero_blocks_are_shifted_identities():
    pcm = expand_base_graph(2, 4, 0)
    h = pcm.to_dense()
    z = pcm.zc
    bg = get_base_graph(2)
    for r in range(bg.rows):
        for c in range(bg.cols):
            block = h[r * z:(r + 1) * z, c * z:(c + 1) * z]
            if (r, c) in bg.entries:
                assert (block.sum(axis=0) == 1).all()
                assert (block.sum(axis=1) == 1).all()
            else:
                assert not block.any()


@pytest.mark.parametrize("bg_id", [0, 1, 2])
@pytest.mark.parametrize("zc", SMALLEST_PER_SET)
def test_dense_expansion_equals_the_base_graph_oracle(bg_id, zc):
    pcm = expand_base_graph(bg_id, zc, set_index_for_zc(zc))
    assert np.array_equal(pcm.to_dense(), base_graph_h(bg_id, zc))


def test_zero_shift_is_identity_block():
    # toy row 1 col 4 carries shift 0
    pcm = expand_base_graph(0, 4, 0)
    h = pcm.to_dense()
    block = h[4:8, 16:20]
    assert np.array_equal(block, np.eye(4, dtype=np.uint8))


def test_shift_reduced_modulo_zc():
    pcm = expand_base_graph(1, 2, 0)
    assert (pcm.edges[:, 1] < 2).all()


def test_invalid_zc_set_pairing_rejected():
    with pytest.raises(ConfigurationError):
        expand_base_graph(1, 2, 1)  # 2 lives in set 0
    with pytest.raises(ConfigurationError):
        expand_base_graph(1, 17, 0)
    with pytest.raises(ConfigurationError):
        set_index_for_zc(17)


@pytest.mark.parametrize("zc,expected", [(2, 0), (384, 1), (320, 2), (224, 3), (288, 4), (352, 5), (208, 6), (240, 7)])
def test_set_index_for_zc(zc, expected):
    assert set_index_for_zc(zc) == expected
    assert zc in LIFTING_SETS[expected]


def _file_text(records, entries=None):
    body = "\n".join(records) + "\n"
    head = "# decodex-bg v1\n"
    if entries is not None:
        head += f"# entries={entries}\n"
    return head + body


def test_loader_rejects_missing_magic():
    with pytest.raises(ConfigurationError, match="header"):
        _parse_bg_file("1,0,0,1,1,1,1,1,1,1,1\n", "x")


def test_loader_rejects_wrong_entry_count():
    with pytest.raises(ConfigurationError, match="entries"):
        _parse_bg_file(_file_text(["0,0,0,1,1,1,1,1,1,1,1"], entries=2), "x")


def test_loader_rejects_nonstandard_bg1_count():
    rec = ["1,0,%d,1,1,1,1,1,1,1,1" % c for c in range(3)]
    with pytest.raises(ConfigurationError, match="expected 316"):
        _parse_bg_file(_file_text(rec, entries=3), "x")


def test_loader_rejects_duplicate_entry():
    rec = ["0,0,0,1,1,1,1,1,1,1,1", "0,0,0,2,2,2,2,2,2,2,2"]
    with pytest.raises(ConfigurationError, match="duplicate"):
        _parse_bg_file(_file_text(rec, entries=2), "x")


def test_loader_rejects_checksum_mismatch():
    text = "# decodex-bg v1\n# entries=1 sha256=" + "0" * 64 + "\n0,0,0,1,1,1,1,1,1,1,1\n"
    with pytest.raises(ConfigurationError, match="checksum"):
        _parse_bg_file(text, "x")


def test_params_validation():
    from decodex.ldpc.params import CodeBlockParams

    with pytest.raises(ConfigurationError):
        CodeBlockParams(2, 17, 10)  # not a lifting size
    with pytest.raises(ConfigurationError):
        CodeBlockParams(2, 36, 11)  # kb beyond BG2 systematic columns
    p = CodeBlockParams(2, 36, 10, n_filler=5, e=120)
    assert p.k == 360 and p.n_cb == p.n_full - 72


def test_bundled_tables_pass_their_own_checksum():
    # would have raised at import otherwise; assert the property explicitly
    assert get_base_graph(1) is not None
    assert get_base_graph(2) is not None
    assert get_base_graph(0) is not None
