"""Social-graph substrate: datasets, generators, loaders, statistics.

The paper evaluates on four SNAP/WOSN graphs (Facebook, Twitter, Slashdot,
Google Plus). Those files are not available offline, so
:mod:`repro.graphs.datasets` provides seeded synthetic generators whose
community structure and degree distribution are matched to each dataset's
published statistics (Table II), at a configurable scale. A SNAP edge-list
loader is included for users who have the real files.
"""

from repro.graphs.graph import SocialGraph
from repro.graphs.generators import powerlaw_cluster_graph, community_graph
from repro.graphs.datasets import (
    DATASETS,
    DatasetProfile,
    available_datasets,
    load_dataset,
)
from repro.graphs.loader import load_edge_list
from repro.graphs.stats import GraphStats, graph_stats

__all__ = [
    "SocialGraph",
    "powerlaw_cluster_graph",
    "community_graph",
    "DATASETS",
    "DatasetProfile",
    "available_datasets",
    "load_dataset",
    "load_edge_list",
    "GraphStats",
    "graph_stats",
]
