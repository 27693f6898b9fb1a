"""Base-graph selection and transport-block segmentation into code blocks."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..ldpc import ALL_LIFTING_SIZES, CodeBlockParams, ConfigurationError

TB_CRC_LEN = 24
CB_CRC_LEN = 24
MAX_CB_INFO = {1: 8448, 2: 3840}
MAX_CODE_BLOCKS = 256


def select_base_graph(payload_bits: int, target_rate: float) -> int:
    """Pick BG1 or BG2 from payload size and target code rate."""
    if payload_bits <= 0:
        raise ValueError("payload size must be positive")
    if payload_bits <= 292:
        return 2
    if payload_bits <= 3824 and target_rate <= 2 / 3:
        return 2
    if target_rate <= 1 / 4:
        return 2
    return 1


def _kb_for(bg: int, payload_bits: int) -> int:
    if bg == 1:
        return 22
    if payload_bits > 640:
        return 10
    if payload_bits > 560:
        return 9
    if payload_bits > 192:
        return 8
    return 6


@dataclass(frozen=True)
class SegmentationPlan:
    """How one transport block maps onto LDPC code blocks."""

    bg: int
    c: int
    k_prime: int
    params: tuple[CodeBlockParams, ...]

    @property
    def bits_per_chunk(self) -> int:
        """Payload+TB-CRC bits carried per code block (before CB CRC)."""
        return self.k_prime - (CB_CRC_LEN if self.c > 1 else 0)


def segment(payload_bits: int, bg: int) -> SegmentationPlan:
    """Split a payload of B bits (TB CRC appended internally) into CBs."""
    if payload_bits <= 0:
        raise ValueError("payload size must be positive")
    k_cb = MAX_CB_INFO[bg]
    b_total = payload_bits + TB_CRC_LEN
    if b_total <= k_cb:
        c = 1
        k_prime = b_total
    else:
        c = math.ceil(b_total / (k_cb - CB_CRC_LEN))
        if c > MAX_CODE_BLOCKS:
            raise ConfigurationError(
                f"a TB of {payload_bits} payload bits needs {c} code blocks, above "
                f"MAX_CODE_BLOCKS = {MAX_CODE_BLOCKS}")
        k_prime = math.ceil((b_total + CB_CRC_LEN * c) / c)

    kb = _kb_for(bg, payload_bits)
    zc = next((z for z in ALL_LIFTING_SIZES if kb * z >= k_prime), None)
    if zc is None:
        raise ConfigurationError(f"no lifting size fits k'={k_prime} with kb={kb}")
    params = CodeBlockParams(bg, zc, kb, n_filler=kb * zc - k_prime)
    return SegmentationPlan(bg=bg, c=c, k_prime=k_prime, params=(params,) * c)
