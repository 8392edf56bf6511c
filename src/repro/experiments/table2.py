"""Table II — dataset statistics.

Prints the same columns as the paper's Table II (users, connections,
average degree) for the synthetic stand-in graphs, side by side with the
published full-scale numbers, so the substitution is auditable.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentConfig, dataset_graph
from repro.graphs.datasets import DATASETS, dataset_key
from repro.graphs.stats import graph_stats
from repro.util.tables import format_table

__all__ = ["run", "report"]


def run(config: ExperimentConfig) -> list[dict]:
    """Measure each dataset's synthetic stand-in."""
    rows = []
    for name in config.datasets:
        graph = dataset_graph(config, name, trial=0)
        stats = graph_stats(graph)
        profile = DATASETS[dataset_key(name)]
        rows.append(
            {
                "dataset": name,
                "users": stats.users,
                "connections": stats.connections,
                "avg_degree": stats.average_degree,
                "max_degree": stats.max_degree,
                "clustering": stats.clustering,
                "paper_users": profile.paper_users,
                "paper_connections": profile.paper_connections,
                "paper_avg_degree": profile.paper_avg_degree,
            }
        )
    return rows


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render Table II (synthetic vs paper)."""
    return format_table(
        headers=[
            "Data Set",
            "Users",
            "Connections",
            "Avg Degree",
            "Clustering",
            "Paper Users",
            "Paper Conns",
            "Paper AvgDeg",
        ],
        rows=[
            (
                r["dataset"],
                r["users"],
                r["connections"],
                r["avg_degree"],
                r["clustering"],
                r["paper_users"],
                r["paper_connections"],
                r["paper_avg_degree"],
            )
            for r in rows
        ],
        title="Table II: social network data sets (synthetic stand-ins vs paper)",
    )
