"""PageRank by lumping all dangling nodes into a single state, plus a dense
verification lab for the matrix identities the method rests on."""

import importlib

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

# The dense verification lab needs scipy; its names resolve on first use
# (PEP 562), so importing the package or running the sparse solver loads
# numpy only.
_LAB = {
    "decomposition": ("LduFactors", "ldu_factors", "run_checks", "stochastic_complement",
                      "verify_coupled_stationarity"),
    "transforms": ("CheckReport", "TransformKind", "build_dense_google",
                   "build_dense_lumped", "build_transform", "check_lumpable",
                   "check_spectrum_identity", "similarity_transform",
                   "stationary_dense", "verify_transform_condition"),
}
_LAB_MODULE = {name: module for module, names in _LAB.items() for name in names}


def __getattr__(name):
    module = _LAB_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "BlockStructure",
    "CheckReport",
    "CooMatrix",
    "DanglingPartition",
    "EdgeListParseError",
    "HyperlinkMatrix",
    "LduFactors",
    "PageRankParams",
    "SolveReport",
    "TransformKind",
    "WebGraph",
    "build_dense_google",
    "build_dense_lumped",
    "build_hyperlink_matrix",
    "build_transform",
    "check_lumpable",
    "check_spectrum_identity",
    "detect_dangling",
    "full_operator",
    "ldu_factors",
    "load_weight_vector",
    "lumped_apply",
    "parse_edge_list",
    "permute_blocks",
    "power_method",
    "probability_vector",
    "recover_pagerank",
    "run_checks",
    "similarity_transform",
    "solve_lumped",
    "stationary_dense",
    "stochastic_complement",
    "uniform_vector",
    "unpermute",
    "verify_coupled_stationarity",
    "verify_transform_condition",
]
