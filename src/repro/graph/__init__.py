"""Graph substrate: digraph, link matrix, PageRank, HITS, corpus views, layout."""

from repro.graph.csr import LinkMatrix
from repro.graph.digraph import Digraph
from repro.graph.hits import HitsResult, hits
from repro.graph.influence_graph import (
    combined_graph,
    ego_network,
    link_graph,
    link_matrix,
    post_reply_graph,
)
from repro.graph.layout import force_layout, scale_positions
from repro.graph.metrics import (
    NetworkSummary,
    average_clustering,
    clustering_coefficient,
    degree_histogram,
    gini_coefficient,
    reciprocity,
    summarize_network,
)
from repro.graph.pagerank import PageRankResult, pagerank, personalized_pagerank

__all__ = [
    "Digraph",
    "pagerank",
    "personalized_pagerank",
    "PageRankResult",
    "hits",
    "HitsResult",
    "link_graph",
    "link_matrix",
    "LinkMatrix",
    "post_reply_graph",
    "combined_graph",
    "ego_network",
    "force_layout",
    "scale_positions",
    "degree_histogram",
    "gini_coefficient",
    "reciprocity",
    "clustering_coefficient",
    "average_clustering",
    "NetworkSummary",
    "summarize_network",
]
