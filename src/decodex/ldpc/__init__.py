"""Quasi-cyclic LDPC core: base graphs, encoding, syndrome, min-sum decoding."""

from .basegraph import (
    ALL_LIFTING_SIZES,
    BG_DIMS,
    LIFTING_SETS,
    BaseGraph,
    ConfigurationError,
    ParityCheckMatrix,
    expand_base_graph,
    get_base_graph,
    set_index_for_zc,
)
from .decode import (
    DEFAULT_MAX_ITERATIONS,
    LLR_MAX,
    MAX_ITERATIONS,
    DecodeResult,
    decode_layered_minsum,
    syndrome_check,
)
from .encode import encode
from .kernel import minsum_kernel
from .params import CodeBlockParams

__all__ = [
    "ALL_LIFTING_SIZES",
    "BG_DIMS",
    "LIFTING_SETS",
    "BaseGraph",
    "CodeBlockParams",
    "ConfigurationError",
    "DEFAULT_MAX_ITERATIONS",
    "DecodeResult",
    "LLR_MAX",
    "MAX_ITERATIONS",
    "ParityCheckMatrix",
    "decode_layered_minsum",
    "encode",
    "expand_base_graph",
    "get_base_graph",
    "minsum_kernel",
    "set_index_for_zc",
    "syndrome_check",
]
