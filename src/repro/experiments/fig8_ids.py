"""Figure 8 — identifier distribution after SELECT.

The paper visualizes the post-reassignment identifier space: small groups
of socially connected nodes share compact ID regions while the occupied
space still covers the whole ring. We report (a) a histogram of
identifiers over ring segments and (b) the mean ring distance between
social friends, compared with the uniform-placement expectation of 0.25.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import grid
from repro.experiments.common import ExperimentConfig, means
from repro.idspace.space import ring_distance
from repro.util.tables import format_table

__all__ = ["run", "report", "BINS"]

#: ring segments of the identifier histogram.
BINS = 10


def wants(config, size, system, trial) -> bool:
    return size == config.num_nodes and system == "select"


def sample(config, cell, rng):
    graph, ids = cell.graph, cell.overlay.ids
    u, v = graph.edge_array()
    friend = float(np.mean(ring_distance(ids[u], ids[v])))
    pairs = np.random.default_rng(cell.trial).integers(0, graph.num_nodes, size=(len(u), 2))
    a, b = pairs[pairs[:, 0] != pairs[:, 1]].T
    random = float(np.mean(ring_distance(ids[a], ids[b])))
    hist, _ = np.histogram(ids, bins=BINS, range=(0.0, 1.0))
    stats = {"mean_friend_distance": friend, "mean_random_distance": random, "ring_coverage": float((hist > 0).mean())}
    return stats, hist / hist.sum()


def row(config, dataset, system, size, samples) -> list[dict]:
    stats, histograms = zip(*samples)
    return [{"dataset": dataset, **means(stats), "histogram": list(sum(histograms) / config.trials)}]


def run(config: ExperimentConfig) -> list[dict]:
    """Identifier-space statistics per dataset (SELECT only)."""
    return grid.rows(config, "fig8")


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
