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

from repro.experiments.common import (
    ExperimentConfig,
    build_system,
    dataset_graph,
    pretty,
    trial_rngs,
)
from repro.metrics.load import forward_counts, load_gini, load_share_by_degree
from repro.pubsub.api import PubSubSystem
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report"]


def run(config: ExperimentConfig, num_bins: int = 6) -> list[dict]:
    """Measure the load-vs-degree series for every dataset × system."""
    rows = []
    rngs = trial_rngs(config, "fig4")
    for dataset in config.datasets:
        for system in config.systems:
            ginis = []
            totals = []
            max_shares = []
            series_acc: "np.ndarray | None" = None
            degrees_acc: "np.ndarray | None" = None
            for trial in range(config.trials):
                graph = dataset_graph(config, dataset, trial)
                overlay = build_system(config, system, graph, trial)
                pubsub = PubSubSystem(overlay)
                publishers = rngs[trial].integers(0, graph.num_nodes, size=config.publishers)
                counts = forward_counts(pubsub, publishers)
                ginis.append(load_gini(counts))
                totals.append(float(counts.sum()))
                total = counts.sum()
                max_shares.append(100.0 * counts.max() / total if total else 0.0)
                series = load_share_by_degree(graph, counts, num_bins=num_bins)
                deg = np.array([d for d, _ in series])
                share = np.array([s for _, s in series])
                if series_acc is None:
                    series_acc = share
                    degrees_acc = deg
                else:
                    m = min(len(series_acc), len(share))
                    series_acc = series_acc[:m] + share[:m]
                    degrees_acc = degrees_acc[:m] + deg[:m]
            share_mean = series_acc / config.trials
            degree_mean = degrees_acc / config.trials
            rows.append(
                {
                    "dataset": dataset,
                    "system": system,
                    "gini": summarize(ginis).mean,
                    "total_forwards": summarize(totals).mean,
                    "max_peer_share": summarize(max_shares).mean,
                    "degree_bins": [float(d) for d in degree_mean],
                    "share_percent": [float(s) for s in share_mean],
                    "top_bin_share": float(share_mean[-1]),
                }
            )
    return rows


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
    for dataset in config.datasets:
        at = {r["system"]: r["total_forwards"] for r in rows if r["dataset"] == dataset}
        if "select" not in at:
            continue
        sel = at["select"]
        others = {s: v for s, v in at.items() if s != "select" and v > 0}
        if not others:
            continue
        best = min(others.values())
        worst = max(others.values())
        lines.append(
            f"  {dataset}: vs best baseline {100 * (1 - sel / best):.0f}%, vs worst {100 * (1 - sel / worst):.0f}%"
        )
    return "\n".join(lines)
