"""PageRank by lumping all dangling nodes into a single state (numpy only).

The lumped chain is the Google matrix of a (k+1)-node graph whose one
dangling node is the lumped state, so the link matrix of either chain is a
:class:`HyperlinkMatrix` (:func:`permute_blocks` builds the lumped one), and
one product kernel and one operator builder serve both.  The dense
verification lab, numpy only as well, is imported from its own modules,
:mod:`lumprank.transforms` and :mod:`lumprank.decomposition`."""

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
