"""PageRank by lumping all dangling nodes into a single state (numpy only).

The dense verification lab, which needs scipy, is imported from its own
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
    detect_dangling,
    full_operator,
    lumped_apply,
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
    "build_hyperlink_matrix",
    "detect_dangling",
    "full_operator",
    "load_weight_vector",
    "lumped_apply",
    "parse_edge_list",
    "permute_blocks",
    "power_method",
    "probability_vector",
    "recover_pagerank",
    "solve_lumped",
    "uniform_vector",
    "unpermute",
]
