"""Synthetic graph generators: LFR, R-MAT, BTER and real-world proxies."""

from .bter import BTERGraph, BTERParams, calibrate_rho, generate_bter
from .families import GRAPH_FAMILIES, build_graph
from .lfr import LFRGraph, LFRParams, generate_lfr
from .powerlaw import (
    expected_powerlaw_mean,
    powerlaw_degrees_with_mean,
    sample_powerlaw,
)
from .rmat import RMATParams, generate_rmat, rmat_edge_list
from .social import (
    SOCIAL_GRAPHS,
    SocialGraphSpec,
    list_social_graphs,
    load_social_graph,
)

__all__ = [
    "LFRParams",
    "LFRGraph",
    "generate_lfr",
    "RMATParams",
    "generate_rmat",
    "rmat_edge_list",
    "BTERParams",
    "BTERGraph",
    "generate_bter",
    "calibrate_rho",
    "SocialGraphSpec",
    "SOCIAL_GRAPHS",
    "load_social_graph",
    "list_social_graphs",
    "sample_powerlaw",
    "powerlaw_degrees_with_mean",
    "expected_powerlaw_mean",
    "GRAPH_FAMILIES",
    "build_graph",
]
