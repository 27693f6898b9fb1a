"""Systematic QC-LDPC encoding on the decoder's circulant list.

The first four base rows and parity block-columns form a double-diagonal
core whose first column has odd-multiplicity shift q (Richardson & Urbanke
2001): summing the core rows leaves I(q) * p1 = the systematic part, which
pins p1.  Back-substitution then solves the other core blocks row by row,
and every extension row's diagonal block, an unshifted identity, at once.

The codeword is held as block-columns written twice, ``(n_cols, 2 * zc)``,
so the circulant ``(col, shift)`` of ``ParityCheckMatrix.edges`` applied to
its block-column is the window ``[shift, shift + zc)`` of that row: the
compiled decoder's two contiguous runs, in numpy.  A leading axis carries a
batch of code blocks of one shape through the same steps.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basegraph import BG_DIMS, ConfigurationError, expand_base_graph
from .params import CodeBlockParams

N_CORE_ROWS = 4
N_CORE_PARITY = 4


@lru_cache(maxsize=64)
def _encoder_plan(bg_id: int, zc: int, set_index: int):
    """Check the encodable structure of a lifted graph and fix its solve order.

    Returns ``(cols, shifts, solved)`` steps: while the blocks ``solved`` are
    zero, XOR-reducing ``windows[cols, shifts]`` over axis 1 gives them.
    Shifts are relative to the circulant on the solved block; extension rows
    are padded to one width with their own (zero) diagonal.
    """
    pcm = expand_base_graph(bg_id, zc, set_index)
    cols = pcm.edges[:, 0] // zc
    shifts = pcm.edges[:, 1]
    bounds = np.concatenate(([0], np.cumsum(pcm.degrees)))
    rows = [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    core = range(BG_DIMS[bg_id][2], BG_DIMS[bg_id][2] + N_CORE_PARITY)

    def step(row_edges, col, shift=0):  # solves block-columns col, col + 1, ...
        edges = np.array(row_edges)
        return cols[edges], (shifts[edges] - shift) % zc, slice(col, col + len(edges))

    first = [shifts[e] for r in rows[:N_CORE_ROWS] for e in r if cols[e] == core.start]
    odd = [s for s, n in Counter(first).items() if n % 2 == 1]
    if len(odd) != 1:
        raise ConfigurationError(
            f"BG{bg_id}: first parity column does not reduce to a single circulant"
        )
    plan = [step([range(bounds[N_CORE_ROWS])], core.start, odd[0])]

    # Core parities by substitution: repeatedly take any core row with a
    # single unknown parity column left.
    solved = {core.start}
    while len(solved) < N_CORE_PARITY:
        progressed = False
        for r in rows[:N_CORE_ROWS]:
            unknown = [e for e in r if cols[e] in core and cols[e] not in solved]
            if len(unknown) != 1:
                continue
            plan.append(step([r], cols[unknown[0]], shifts[unknown[0]]))
            solved.add(cols[unknown[0]])
            progressed = True
        if not progressed:
            raise ConfigurationError(f"BG{bg_id}: core back-substitution stalled")

    # Extension rows: each solves the block on its own diagonal, its last
    # circulant, from the systematic and core blocks alone.
    ext = rows[N_CORE_ROWS:]
    for i, r in enumerate(ext):
        if [(cols[e], shifts[e]) for e in r if cols[e] >= core.stop] != [(core.stop + i, 0)]:
            raise ConfigurationError(
                f"BG{bg_id}: row {N_CORE_ROWS + i} lacks its extension diagonal"
            )
    if ext:
        width = max(len(r) for r in ext)
        plan.append(step([[*r] + [r[-1]] * (width - len(r)) for r in ext], core.stop))
    return tuple(plan)


def encode(info_bits: np.ndarray, params: CodeBlockParams) -> np.ndarray:
    """Encode each row of ``params.k`` systematic bits into its full n_full
    codeword; a 1-D call is the one-row case.

    Filler positions inside info_bits must already be zero.  Systematic base
    columns beyond params.kb (short payloads on BG2) are encoded as zeros.
    """
    info_bits = np.asarray(info_bits, dtype=np.uint8)
    if info_bits.ndim not in (1, 2) or info_bits.shape[-1] != params.k:
        raise ValueError(f"expected rows of {params.k} info bits, got shape {info_bits.shape}")

    zc = params.zc
    rows = info_bits.reshape(-1, params.kb, zc)
    blocks = np.zeros((len(rows), BG_DIMS[params.bg][1], 2 * zc), dtype=np.uint8)
    blocks[:, : params.kb, :zc] = blocks[:, : params.kb, zc:] = rows
    windows = sliding_window_view(blocks, zc, axis=2)  # [row, col, shift]: a circulant's output
    for cols, shifts, solved in _encoder_plan(params.bg, zc, params.set_index):
        bits = np.bitwise_xor.reduce(windows[:, cols, shifts], axis=2)
        blocks[:, solved, :zc] = blocks[:, solved, zc:] = bits
    return blocks[:, :, :zc].reshape(info_bits.shape[:-1] + (params.n_full,))
