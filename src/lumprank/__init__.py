"""PageRank by lumping all dangling nodes into a single state (numpy only).

The dense verification lab, numpy only as well, is imported from its own
modules, :mod:`lumprank.transforms` and :mod:`lumprank.decomposition`."""

from .graph import (
    EdgeListParseError,
    HyperlinkMatrix,
    PageRankParams,
    WebGraph,
    build_hyperlink_matrix,
    load_weight_vector,
    parse_edge_list,
    probability_vector,
    uniform_vector,
)
from .lumping import (
    BlockStructure,
    CooMatrix,
    DanglingPartition,
    SolveReport,
    bicgstab,
    detect_dangling,
    full_operator,
    full_system,
    permute_blocks,
    power_method,
    recover_pagerank,
    solve_lumped,
    unpermute,
)

__version__ = "0.1.0"

__all__ = [
    "BlockStructure",
    "CooMatrix",
    "DanglingPartition",
    "EdgeListParseError",
    "HyperlinkMatrix",
    "PageRankParams",
    "SolveReport",
    "WebGraph",
    "bicgstab",
    "build_hyperlink_matrix",
    "detect_dangling",
    "full_operator",
    "full_system",
    "load_weight_vector",
    "parse_edge_list",
    "permute_blocks",
    "power_method",
    "probability_vector",
    "recover_pagerank",
    "solve_lumped",
    "uniform_vector",
    "unpermute",
]
