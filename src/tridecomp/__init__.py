"""Fractional triangle decompositions of dense graphs.

Weights start uniform on every triangle and are rebalanced through rooted-K4
transfers driven by an exact max-flow computation; an independent exact LP
oracle and an exact verifier cross-check every result.
"""

from .decompose import FlowNetwork, apply_transfer, build_network, decompose, initial_weight, solve
from .graph import (
    DEFAULT_MAX_LINKS,
    DegreeStats,
    Graph,
    LinkSet,
    degree_stats,
    enumerate_rooted_k4_links,
    enumerate_triangles,
    from_edge_list,
)
from .instances import GenSpec, Xorshift64Star, generate, read_edge_list, write_edge_list
from .lp import DEFAULT_MAX_LP_TRIANGLES, FeasibilityVerdict, lp_feasible
from .maxflow import ArcNetwork, FlowResult, max_flow
from .peeling import PeelResult, peel_heavy_triangles
from .verify import (
    CutCertificate,
    Decomposition,
    VerifyReport,
    format_cut_certificate,
    format_decomposition,
    parse_decomposition,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "ArcNetwork",
    "CutCertificate",
    "Decomposition",
    "DEFAULT_MAX_LINKS",
    "DEFAULT_MAX_LP_TRIANGLES",
    "DegreeStats",
    "FeasibilityVerdict",
    "FlowNetwork",
    "FlowResult",
    "GenSpec",
    "Graph",
    "LinkSet",
    "PeelResult",
    "VerifyReport",
    "Xorshift64Star",
    "apply_transfer",
    "build_network",
    "decompose",
    "degree_stats",
    "enumerate_rooted_k4_links",
    "enumerate_triangles",
    "format_cut_certificate",
    "format_decomposition",
    "from_edge_list",
    "generate",
    "initial_weight",
    "lp_feasible",
    "max_flow",
    "parse_decomposition",
    "peel_heavy_triangles",
    "read_edge_list",
    "solve",
    "verify",
    "write_edge_list",
]
