"""Per-code-block coding configuration."""

from __future__ import annotations

from dataclasses import dataclass

from .basegraph import BG_DIMS, ConfigurationError, set_index_for_zc


@dataclass(frozen=True)
class CodeBlockParams:
    """Coding configuration of one code block.

    kb systematic base columns of lifting size zc carry payload + CB-CRC +
    n_filler filler bits; e is the rate-matched output length (0 until a
    transport-block allocation assigns one).  The lengths derive from these.
    """

    bg: int
    zc: int
    kb: int
    n_filler: int = 0
    e: int = 0

    def __post_init__(self):
        set_index_for_zc(self.zc)  # rejects a zc outside the lifting sets
        if not 0 < self.kb <= BG_DIMS[self.bg][2]:
            raise ConfigurationError(f"kb={self.kb} out of range for BG{self.bg}")
        if not 0 <= self.n_filler < self.k:
            raise ConfigurationError(f"n_filler={self.n_filler} out of range")
        if self.e < 0:
            raise ConfigurationError("e must be non-negative")

    @property
    def set_index(self) -> int:
        """Lifting-set index of zc, which selects the base graph's shifts."""
        return set_index_for_zc(self.zc)

    @property
    def k(self) -> int:
        """Payload + CB-CRC + filler bits: kb * zc."""
        return self.kb * self.zc

    @property
    def n_full(self) -> int:
        """Full lifted codeword length: base columns * zc."""
        return BG_DIMS[self.bg][1] * self.zc

    @property
    def n_cb(self) -> int:
        """Circular-buffer length after puncturing the first 2*zc systematic
        positions."""
        return self.n_full - 2 * self.zc
