"""Figure 8 — identifier distribution after SELECT.

The paper visualizes the post-reassignment identifier space: small groups
of socially connected nodes share compact ID regions while the occupied
space still covers the whole ring. We report (a) a histogram of
identifiers over ring segments and (b) the mean ring distance between
social friends, compared with the uniform-placement expectation of 0.25.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    ExperimentConfig,
    build_system,
    dataset_graph,
)
from repro.idspace.space import ring_distance
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report"]


def run(config: ExperimentConfig, bins: int = 10) -> list[dict]:
    """Identifier-space statistics per dataset (SELECT only)."""
    rows = []
    for dataset in config.datasets:
        friend_dist = []
        random_dist = []
        coverage = []
        histogram = np.zeros(bins, dtype=np.float64)
        for trial in range(config.trials):
            graph = dataset_graph(config, dataset, trial)
            overlay = build_system(config, "select", graph, trial)
            ids = overlay.ids
            fd = [ring_distance(float(ids[u]), float(ids[v])) for u, v in graph.edges()]
            friend_dist.append(float(np.mean(fd)))
            rng = np.random.default_rng(trial)
            pairs = rng.integers(0, graph.num_nodes, size=(len(fd), 2))
            rd = [
                ring_distance(float(ids[a]), float(ids[b]))
                for a, b in pairs
                if a != b
            ]
            random_dist.append(float(np.mean(rd)))
            hist, _ = np.histogram(ids, bins=bins, range=(0.0, 1.0))
            histogram += hist / hist.sum()
            occupied = (hist > 0).mean()
            coverage.append(float(occupied))
        rows.append(
            {
                "dataset": dataset,
                "mean_friend_distance": summarize(friend_dist).mean,
                "mean_random_distance": summarize(random_dist).mean,
                "ring_coverage": summarize(coverage).mean,
                "histogram": list(histogram / config.trials),
            }
        )
    return rows


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render the Figure 8 summary."""
    table_rows = []
    for r in rows:
        hist = " ".join(f"{100 * h:.0f}" for h in r["histogram"])
        table_rows.append(
            (
                r["dataset"],
                r["mean_friend_distance"],
                r["mean_random_distance"],
                r["ring_coverage"],
                hist,
            )
        )
    return format_table(
        headers=[
            "Dataset",
            "Friend ring dist",
            "Random-pair dist",
            "Ring coverage",
            "ID histogram (% per decile)",
        ],
        rows=table_rows,
        title="Figure 8: identifier distribution after SELECT (friends cluster, ring stays covered)",
    )
