"""Systematic QC-LDPC encoding on the decoder's lifted parity-check matrix.

The first four base rows together with the first four parity block-columns
form a double-diagonal core whose first column has odd-multiplicity shift q
(Richardson & Urbanke 2001); summing the four core rows over GF(2) cancels
everything else and leaves I(q) * p1 = sum of the systematic contributions,
which pins p1.  Every other parity block is then the one unknown of some
base row, solved in a fixed order (core back-substitution, then each
extension row's diagonal): while the block is still zero, XOR-reducing the
row's ``ParityCheckMatrix.gather`` rows gives the bits it must hold, which
are scattered back through the same gather indices.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

from .basegraph import BG_DIMS, ConfigurationError, expand_base_graph
from .params import CodeBlockParams

N_CORE_ROWS = 4
N_CORE_PARITY = 4


@lru_cache(maxsize=64)
def _encoder_plan(bg_id: int, zc: int, set_index: int):
    """Check the encodable structure of a lifted graph and fix its solve order.

    Returns p1's codeword indices and the (row, entry) of every other parity
    block, in the order the encoder fills them.
    """
    pcm = expand_base_graph(bg_id, zc, set_index)
    core = range(BG_DIMS[bg_id][2], BG_DIMS[bg_id][2] + N_CORE_PARITY)
    # Lane 0 of a circulant's gather row is col * zc + shift.
    cols = [(idx[:, 0] // zc).tolist() for idx in pcm.gather]

    first = {
        (r, e): int(pcm.gather[r][e, 0] % zc)
        for r in range(N_CORE_ROWS) for e, c in enumerate(cols[r]) if c == core.start
    }
    odd = [s for s, n in Counter(first.values()).items() if n % 2 == 1]
    if len(odd) != 1:
        raise ConfigurationError(
            f"BG{bg_id}: first parity column does not reduce to a single circulant"
        )
    p1 = next(pcm.gather[r][e] for (r, e), s in first.items() if s == odd[0])

    # Core parities by substitution: repeatedly take any core row with a
    # single unknown parity column left.
    order = []
    solved = {core.start}
    while len(solved) < N_CORE_PARITY:
        progressed = False
        for r in range(N_CORE_ROWS):
            unknown = [e for e, c in enumerate(cols[r]) if c in core and c not in solved]
            if len(unknown) != 1:
                continue
            order.append((r, unknown[0]))
            solved.add(cols[r][unknown[0]])
            progressed = True
        if not progressed:
            raise ConfigurationError(f"BG{bg_id}: core back-substitution stalled")

    # Extension rows: each determines the parity block on its own diagonal.
    for r in range(N_CORE_ROWS, pcm.base_rows):
        ext = [e for e, c in enumerate(cols[r]) if c >= core.stop]
        if [cols[r][e] for e in ext] != [core.stop + r - N_CORE_ROWS]:
            raise ConfigurationError(f"BG{bg_id}: row {r} lacks its extension diagonal")
        order.append((r, ext[0]))
    return p1, tuple(order)


def encode(info_bits: np.ndarray, params: CodeBlockParams) -> np.ndarray:
    """Encode ``params.k`` systematic bits into the full n_full codeword.

    Filler positions inside info_bits must already be zero.  Systematic base
    columns beyond params.kb (short payloads on BG2) are encoded as zeros.
    """
    info_bits = np.asarray(info_bits, dtype=np.uint8)
    if info_bits.ndim != 1 or len(info_bits) != params.k:
        raise ValueError(f"expected {params.k} info bits, got {len(info_bits)}")

    p1, order = _encoder_plan(params.bg, params.zc, params.set_index)
    gather = expand_base_graph(params.bg, params.zc, params.set_index).gather
    cw = np.zeros(params.n_full, dtype=np.uint8)
    cw[: params.k] = info_bits

    agg = np.zeros(params.zc, dtype=np.uint8)
    for idx in gather[:N_CORE_ROWS]:
        agg ^= np.bitwise_xor.reduce(cw[idx], axis=0)
    cw[p1] = agg
    for r, e in order:
        cw[gather[r][e]] = np.bitwise_xor.reduce(cw[gather[r]], axis=0)
    return cw
