"""MCS table lookups and simplified transport-block sizing.

The bundled table is the 64QAM MCS set (indices 0-27): modulation order Qm
and target code rate as a fraction of 1024.  TB sizing uses a deliberately
simple resource count -- 12 subcarriers times 13 data symbols of the
14-symbol slot, one layer -- byte-aligned and floored at 24 bits; it keeps
size monotone in PRB and MCS without the full quantization procedure.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

SUBCARRIERS_PER_PRB = 12
DATA_SYMBOLS_PER_SLOT = 13
MIN_TB_BITS = 24


@dataclass(frozen=True)
class McsEntry:
    index: int
    qm: int
    rate_num: int  # code rate numerator, denominator fixed at 1024

    @property
    def rate(self) -> float:
        return self.rate_num / 1024.0


@lru_cache(maxsize=1)
def _table() -> tuple[McsEntry, ...]:
    text = resources.files("decodex.nr").joinpath("data", "mcs_table1.csv").read_text()
    rows = list(csv.DictReader(text.strip().split("\n")))
    entries = tuple(
        McsEntry(index=int(r["index"]), qm=int(r["qm"]), rate_num=int(r["rate_num"]))
        for r in rows
    )
    if [e.index for e in entries] != list(range(len(entries))):
        raise ValueError("MCS table indices must be dense and sorted")
    if any(e.qm not in (2, 4, 6, 8) for e in entries):
        raise ValueError("MCS table contains an unsupported modulation order")
    return entries


def mcs_lookup(index: int) -> McsEntry:
    table = _table()
    if not 0 <= index < len(table):
        raise ValueError(f"MCS index {index} out of range [0, {len(table) - 1}]")
    return table[index]


def compute_tb_size(prb: int, mcs: McsEntry) -> int:
    """Payload bits carried by ``prb`` resource blocks at the given MCS."""
    if prb < 1:
        raise ValueError("prb must be >= 1")
    n_re = SUBCARRIERS_PER_PRB * DATA_SYMBOLS_PER_SLOT * prb
    raw = n_re * mcs.qm * mcs.rate_num / 1024.0
    return max(MIN_TB_BITS, int(raw // 8) * 8)


def num_coded_bits(prb: int, mcs: McsEntry) -> int:
    """Total rate-matched bits available to the TB (one bit per RE per Qm)."""
    return SUBCARRIERS_PER_PRB * DATA_SYMBOLS_PER_SLOT * prb * mcs.qm
