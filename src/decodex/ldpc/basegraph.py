"""Quasi-cyclic LDPC base graphs: bundled shift tables and lifted expansion.

The shift tables are stored in a bundled text file, one record per line:

    bg_id,row,col,s0,s1,s2,s3,s4,s5,s6,s7

with one raw (un-reduced) circulant shift per lifting-size set index.
Positions absent from the file carry no circulant (zero block).  The file
starts with the magic header ``# decodex-bg v1`` followed by an
``entries=<n> sha256=<hex>`` line that the loader verifies.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import numpy as np

BG_FILE_MAGIC = "# decodex-bg v1"

# Non-null base entry counts of the standard graphs; the loader rejects a
# table file that disagrees.
STANDARD_ENTRY_COUNTS = {1: 316, 2: 197}

# (rows, cols, systematic cols) of the supported base graphs.  Id 0 is the
# small test graph bundled next to the standard ones.
BG_DIMS = {
    1: (46, 68, 22),
    2: (42, 52, 10),
    0: (4, 8, 4),
}

# Lifting sizes grouped by set index: set i holds a_i * 2^j for the listed j.
LIFTING_SETS = (
    (2, 4, 8, 16, 32, 64, 128, 256),
    (3, 6, 12, 24, 48, 96, 192, 384),
    (5, 10, 20, 40, 80, 160, 320),
    (7, 14, 28, 56, 112, 224),
    (9, 18, 36, 72, 144, 288),
    (11, 22, 44, 88, 176, 352),
    (13, 26, 52, 104, 208),
    (15, 30, 60, 120, 240),
)

_SET_INDEX = {z: i for i, sizes in enumerate(LIFTING_SETS) for z in sizes}
ALL_LIFTING_SIZES = tuple(sorted(_SET_INDEX))

# Largest base-row degree the compiled decoder's per-call scratch holds
# (BG1 peaks at 19); expansion rejects a graph with a denser row.
MAX_ROW_DEGREE = 32


class ConfigurationError(ValueError):
    """Invalid coding configuration (bad zc/set pairing, bad table file...)."""


def set_index_for_zc(zc: int) -> int:
    """Return the lifting-set index that contains ``zc``.

    Raises ConfigurationError for a value that is not a standard lifting size.
    """
    try:
        return _SET_INDEX[zc]
    except KeyError:
        raise ConfigurationError(f"{zc} is not a valid lifting size") from None


@dataclass(frozen=True)
class BaseGraph:
    """A quasi-cyclic base matrix of circulant shift coefficients.

    entries maps (row, col) -> tuple of 8 raw shifts, one per set index.
    """

    id: int
    rows: int
    cols: int
    kb: int
    entries: dict[tuple[int, int], tuple[int, ...]] = field(repr=False)


def _parse_bg_file(text: str, path_label: str) -> dict[int, BaseGraph]:
    lines = text.strip().split("\n")
    if not lines or lines[0].strip() != BG_FILE_MAGIC:
        raise ConfigurationError(f"{path_label}: missing '{BG_FILE_MAGIC}' header")
    meta = {}
    body_start = 1
    for ln in lines[1:]:
        if not ln.startswith("#"):
            break
        body_start += 1
        for tok in ln.lstrip("# ").split():
            if "=" in tok:
                k, v = tok.split("=", 1)
                meta[k] = v
    records = lines[body_start:]
    if "entries" in meta and int(meta["entries"]) != len(records):
        raise ConfigurationError(
            f"{path_label}: header claims {meta['entries']} entries, found {len(records)}"
        )
    if "sha256" in meta:
        digest = hashlib.sha256(("\n".join(records) + "\n").encode()).hexdigest()
        if digest != meta["sha256"]:
            raise ConfigurationError(f"{path_label}: table checksum mismatch")

    per_bg: dict[int, dict[tuple[int, int], tuple[int, ...]]] = {}
    for ln in records:
        parts = ln.split(",")
        if len(parts) != 11:
            raise ConfigurationError(f"{path_label}: malformed record: {ln!r}")
        bg_id, row, col = int(parts[0]), int(parts[1]), int(parts[2])
        shifts = tuple(int(x) for x in parts[3:])
        entries = per_bg.setdefault(bg_id, {})
        if (row, col) in entries:
            raise ConfigurationError(f"{path_label}: duplicate entry ({row}, {col})")
        entries[(row, col)] = shifts

    graphs = {}
    for bg_id, entries in per_bg.items():
        if bg_id in STANDARD_ENTRY_COUNTS and len(entries) != STANDARD_ENTRY_COUNTS[bg_id]:
            raise ConfigurationError(
                f"{path_label}: BG{bg_id} has {len(entries)} entries, "
                f"expected {STANDARD_ENTRY_COUNTS[bg_id]}"
            )
        if bg_id not in BG_DIMS:
            raise ConfigurationError(f"{path_label}: unknown base graph id {bg_id}")
        rows, cols, kb = BG_DIMS[bg_id]
        if any(r >= rows or c >= cols or r < 0 or c < 0 for r, c in entries):
            raise ConfigurationError(f"{path_label}: entry outside BG{bg_id} dimensions")
        graphs[bg_id] = BaseGraph(id=bg_id, rows=rows, cols=cols, kb=kb, entries=entries)
    return graphs


@lru_cache(maxsize=None)
def _bundled_graphs() -> dict[int, BaseGraph]:
    graphs = {}
    for name in ("bg_tables.txt", "bg_toy.txt"):
        text = resources.files("decodex.ldpc").joinpath("data", name).read_text()
        graphs.update(_parse_bg_file(text, name))
    return graphs


def get_base_graph(bg_id: int) -> BaseGraph:
    """Return a bundled base graph (1, 2, or 0 for the test graph)."""
    try:
        return _bundled_graphs()[bg_id]
    except KeyError:
        raise ConfigurationError(f"no bundled base graph with id {bg_id}") from None


@dataclass(frozen=True)
class ParityCheckMatrix:
    """Lifted parity-check matrix in layered (per-base-row) form, stored once
    as its circulant list: ``edges`` holds one int32 ``(col * zc, shift)`` row
    per circulant, layer after layer, and ``degrees`` the count per layer.
    Lane ``j`` of a circulant checks codeword bit
    ``col * zc + (shift + j) % zc``; ``lane_indices`` spells that out for the
    numpy paths.
    """

    bg_id: int
    zc: int
    edges: np.ndarray = field(repr=False)
    degrees: np.ndarray = field(repr=False)

    @property
    def base_rows(self) -> int:
        return len(self.degrees)

    @property
    def n_rows(self) -> int:
        return self.base_rows * self.zc

    @property
    def n_cols(self) -> int:
        return BG_DIMS[self.bg_id][1] * self.zc

    def lane_indices(self) -> tuple[np.ndarray, ...]:
        """Per layer, the ``(degree, zc)`` codeword indices of its circulants'
        lanes: row ``e`` of ``flat[lanes[layer]]`` is the e-th circulant
        applied to its block-column.  Built on each call, never stored."""
        lanes = self.edges[:, :1] + (self.edges[:, 1:] + np.arange(self.zc)) % self.zc
        return tuple(np.split(lanes, np.cumsum(self.degrees)[:-1]))

    def to_dense(self) -> np.ndarray:
        """Materialize H as a dense 0/1 uint8 matrix (tests and small codes)."""
        h = np.zeros((self.n_rows, self.n_cols), dtype=np.uint8)
        lane = np.arange(self.zc)
        for r, idx in enumerate(self.lane_indices()):
            h[r * self.zc + lane, idx] ^= 1  # a layer's circulants share no column
        return h


@lru_cache(maxsize=64)
def expand_base_graph(bg_id: int, zc: int, set_index: int) -> ParityCheckMatrix:
    """Lift a base graph by zc: each entry becomes an identity cyclically
    shifted by (shift mod zc); absent entries become zero blocks.
    """
    if not 0 <= set_index <= 7:
        raise ConfigurationError(f"set index {set_index} out of range [0, 7]")
    if zc not in LIFTING_SETS[set_index]:
        raise ConfigurationError(f"zc={zc} does not belong to lifting set {set_index}")
    bg = get_base_graph(bg_id)

    entries = sorted(bg.entries.items())  # by row, then column
    degrees = np.bincount([r for (r, _), _ in entries], minlength=bg.rows)
    over = degrees > MAX_ROW_DEGREE
    if over.any():
        r = over.argmax()
        raise ConfigurationError(
            f"BG{bg_id} row {r} has degree {degrees[r]}, "
            f"above the decoder's limit of {MAX_ROW_DEGREE}"
        )
    return ParityCheckMatrix(
        bg_id=bg_id,
        zc=zc,
        edges=np.array([(c * zc, s[set_index] % zc) for (_, c), s in entries], dtype=np.int32),
        degrees=degrees.astype(np.int32),
    )
