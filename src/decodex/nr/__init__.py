"""Transport-block chain: CRCs, segmentation, rate matching, MCS lookup, and
the per-code-block decode descriptors every backend consumes."""

from .crc import attach_crc, check_crc, crc24
from .mcs import McsEntry, compute_tb_size, mcs_lookup, num_coded_bits
from .pipeline import (
    DecodeDescriptor,
    ReassembledBlock,
    TransportBlock,
    build_tb_descriptors,
    code_block_bits,
    make_transport_block,
    plan_transport_block,
    random_transport_block,
    reassemble,
    split_coded_bits,
)
from .ratematch import buffer_indices, rate_dematch, rate_match
from .segment import SegmentationPlan, segment, select_base_graph

__all__ = [
    "DecodeDescriptor",
    "McsEntry",
    "ReassembledBlock",
    "SegmentationPlan",
    "TransportBlock",
    "attach_crc",
    "buffer_indices",
    "build_tb_descriptors",
    "check_crc",
    "code_block_bits",
    "compute_tb_size",
    "crc24",
    "make_transport_block",
    "mcs_lookup",
    "num_coded_bits",
    "plan_transport_block",
    "random_transport_block",
    "rate_dematch",
    "rate_match",
    "reassemble",
    "segment",
    "select_base_graph",
    "split_coded_bits",
]
