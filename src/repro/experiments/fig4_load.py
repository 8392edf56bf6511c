"""Figure 4 — messages forwarded per social degree (load balance).

For each dataset × system, many notifications are published and each
peer's share of forwarded messages is accumulated. Figure 4 plots the
share against peers' social degree: Symphony/Bayeux funnel traffic into
whatever peers the DHT picks, Vitis/OMen into high-degree hubs; SELECT
spreads it. We report the per-degree-bin series plus a scalar Gini
coefficient per system (0 = perfectly balanced).
"""

from __future__ import annotations

import numpy as np

from repro.experiments import grid
from repro.experiments.common import ExperimentConfig, means, pretty, select_margins
from repro.metrics.load import forward_counts, load_gini, load_share_by_degree
from repro.pubsub.api import PubSubSystem
from repro.util.tables import format_table

__all__ = ["run", "report", "LOAD_BINS"]

#: Figure 4's equal-population social-degree bins.
LOAD_BINS = 6


def wants(config, size, system, trial) -> bool:
    return size == config.num_nodes and system in config.systems


def sample(config, cell, rng):
    publishers = rng.integers(0, cell.graph.num_nodes, size=config.publishers)
    counts = forward_counts(PubSubSystem(cell.overlay), publishers)
    total = counts.sum()
    max_share = 100.0 * counts.max() / total if total else 0.0
    stats = {"gini": load_gini(counts), "total_forwards": float(total), "max_peer_share": max_share}
    return stats, load_share_by_degree(cell.graph, counts, num_bins=LOAD_BINS)


def row(config, dataset, system, size, samples) -> list[dict]:
    stats, series = zip(*samples)
    degree, share = np.array(series).sum(axis=0).T / config.trials
    return [{"dataset": dataset, "system": system, **means(stats), "degree_bins": [float(d) for d in degree],
             "share_percent": [float(s) for s in share], "top_bin_share": float(share[-1])}]


def run(config: ExperimentConfig) -> list[dict]:
    """The load-vs-degree series for every dataset × system."""
    return grid.rows(config, "fig4")


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render Figure 4: per-bin shares and the balance summary."""
    table_rows = []
    for r in rows:
        series = " ".join(
            f"{d:.0f}:{s:.1f}%" for d, s in zip(r["degree_bins"], r["share_percent"])
        )
        table_rows.append(
            (
                r["dataset"],
                pretty(r["system"]),
                r["total_forwards"],
                r["top_bin_share"],
                r["max_peer_share"],
                series,
            )
        )
    out = format_table(
        headers=[
            "Dataset",
            "System",
            "Total forwards",
            "Top-degree-bin %",
            "Max peer %",
            "degree:share series",
        ],
        rows=table_rows,
        title="Figure 4: forwarded-message share per social degree (publisher's own sends excluded)",
        float_fmt="{:.1f}",
    )
    lines = [out, "", "SELECT forwarding-load reduction (total forwards imposed on peers):"]
    for dataset, sel, others in select_margins(config, rows, "total_forwards"):
        best = min(others.values())
        worst = max(others.values())
        lines.append(
            f"  {dataset}: vs best baseline {100 * (1 - sel / best):.0f}%, vs worst {100 * (1 - sel / worst):.0f}%"
        )
    return "\n".join(lines)
