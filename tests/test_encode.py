"""QC-LDPC encoding against independent GF(2) oracles."""

import dataclasses

import numpy as np
import pytest

from decodex.ldpc import (
    BG_DIMS,
    LIFTING_SETS,
    CodeBlockParams,
    ConfigurationError,
    basegraph,
    encode,
    expand_base_graph,
    syndrome_check,
)
from decodex.ldpc.encode import _encoder_plan

from helpers import SMALLEST_PER_SET, dense_syndrome_ok

# Every lifting size of both standard graphs at full kb (among them BG1
# zc=104, the shift-105 aggregate case, and BG2 zc=240, a set with unit
# aggregate shift), plus shortened BG2 payloads and the toy graph.
CONFIGS = [
    (bg, zc, set_index, BG_DIMS[bg][2])
    for bg in (1, 2)
    for set_index, sizes in enumerate(LIFTING_SETS)
    for zc in sizes
] + [
    (2, 15, 7, 6),     # shortened systematic columns
    (2, 384, 1, 8),
    (2, 104, 6, 9),
    (0, 2, 0, 4),
    (0, 4, 0, 4),
]


@pytest.mark.parametrize("bg,zc,set_index,kb", CONFIGS)
def test_random_info_satisfies_parity(bg, zc, set_index, kb):
    params = CodeBlockParams(bg, zc, kb)
    rng = np.random.default_rng(bg * 1000 + zc)
    info = rng.integers(0, 2, params.k, dtype=np.uint8)
    cw = encode(info, params)
    assert cw.shape == (params.n_full,)
    assert syndrome_check(expand_base_graph(bg, zc, set_index), cw)
    assert np.array_equal(cw[: params.k], info)


@pytest.mark.parametrize("bg,zc,set_index,kb", list(dict.fromkeys(
    [(1, 2, 0, 22), (2, 9, 4, 10), (0, 4, 0, 4)]
    + [(bg, zc, i, BG_DIMS[bg][2]) for bg in (0, 1, 2) for i, zc in enumerate(SMALLEST_PER_SET)]
)))
def test_dense_matrix_oracle_agrees(bg, zc, set_index, kb):
    params = CodeBlockParams(bg, zc, kb)
    rng = np.random.default_rng(7)
    for _ in range(5):
        cw = encode(rng.integers(0, 2, params.k, dtype=np.uint8), params)
        assert dense_syndrome_ok(bg, zc, cw)


def _held_bytes(*objs) -> int:
    """Bytes of the distinct numpy buffers reachable from ``objs`` through
    tuples and dataclass fields; a view counts as the array it views."""
    buffers = {}

    def walk(x):
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            buffers[id(x)] = x.nbytes
        elif isinstance(x, tuple):
            for item in x:
                walk(item)
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                walk(getattr(x, f.name))

    for obj in objs:
        walk(obj)
    return sum(buffers.values())


def test_lifted_graph_and_encoder_plan_hold_no_per_lane_table():
    """BG1 zc=384: one int64 index per lane would be about 1 MB."""
    held = _held_bytes(expand_base_graph(1, 384, 1), _encoder_plan(1, 384, 1))
    assert 0 < held < 16 * 1024


def test_all_zero_info_gives_all_zero_codeword():
    params = CodeBlockParams(2, 36, 10)
    cw = encode(np.zeros(params.k, dtype=np.uint8), params)
    assert not cw.any()


def test_length_mismatch_rejected():
    params = CodeBlockParams(2, 36, 10)
    with pytest.raises(ValueError, match="info bits"):
        encode(np.zeros(params.k - 1, dtype=np.uint8), params)


def test_syndrome_check_length_mismatch_rejected():
    pcm = expand_base_graph(2, 36, 4)
    with pytest.raises(ValueError, match="codeword"):
        syndrome_check(pcm, np.zeros(10, dtype=np.uint8))


def test_single_flip_breaks_syndrome_every_column():
    """Every column participates in at least one check on both graphs."""
    for bg, zc, set_index, kb in [(1, 2, 0, 22), (2, 2, 0, 10)]:
        params = CodeBlockParams(bg, zc, kb)
        pcm = expand_base_graph(bg, zc, set_index)
        cw = encode(np.zeros(params.k, dtype=np.uint8), params)
        for pos in range(params.n_full):
            flipped = cw.copy()
            flipped[pos] ^= 1
            assert not syndrome_check(pcm, flipped), f"column {pos} unchecked"


def test_encode_is_linear():
    params = CodeBlockParams(2, 12, 10)
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, params.k, dtype=np.uint8)
    b = rng.integers(0, 2, params.k, dtype=np.uint8)
    assert np.array_equal(encode(a ^ b, params), encode(a, params) ^ encode(b, params))


@pytest.mark.parametrize(
    "added,removed,message",
    [
        ({(0, 10): (5,) * 8}, (), "does not reduce to a single circulant"),
        ({(0, 12): (0,) * 8, (3, 11): (0,) * 8}, (), "core back-substitution stalled"),
        ({}, ((10, 20),), "row 10 lacks its extension diagonal"),
        ({(10, 20): (1,) * 8}, (), "row 10 lacks its extension diagonal"),
    ],
    ids=["first-column", "core-stall", "extension-diagonal", "shifted-extension-diagonal"],
)
def test_unencodable_base_graph_is_rejected(monkeypatch, added, removed, message):
    graphs = basegraph._bundled_graphs()
    entries = {rc: s for rc, s in graphs[2].entries.items() if rc not in removed} | added
    monkeypatch.setitem(graphs, 2, dataclasses.replace(graphs[2], entries=entries))
    expand_base_graph.cache_clear()
    _encoder_plan.cache_clear()
    try:
        with pytest.raises(ConfigurationError, match=message):
            encode(np.zeros(160, dtype=np.uint8), CodeBlockParams(2, 16, 10))
    finally:
        expand_base_graph.cache_clear()
