"""Figure 2 — average hops per social lookup vs network size.

Per dataset, the network grows through a set of sizes; at each size every
system's overlay is built and the mean hop count of publisher→subscriber
lookups measured. The paper reports SELECT at 75–85% fewer hops than
Symphony and 41–65% fewer than the best state of the art. Beside the hops,
their stretch over the shortest paths the overlay's own links hold.
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
from repro.metrics.hops import route_stretch, sample_friend_pairs, social_lookup_hops
from repro.pubsub.api import PubSubSystem
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report", "growth_sizes"]


def growth_sizes(config: ExperimentConfig, points: int = 3) -> list[int]:
    """The growing network sizes on Figure 2's x-axis."""
    fractions = np.linspace(0.4, 1.0, points)
    return sorted({max(32, int(round(config.num_nodes * f))) for f in fractions})


def run(config: ExperimentConfig, points: int = 3) -> list[dict]:
    """Measure mean lookup hops for every dataset × system × size."""
    rows = []
    sizes = growth_sizes(config, points)
    rngs = trial_rngs(config, "fig2")
    for dataset in config.datasets:
        for size in sizes:
            for system in config.systems:
                samples = []
                stretch = []
                for trial in range(config.trials):
                    graph = dataset_graph(config, dataset, trial, num_nodes=size)
                    overlay = build_system(config, system, graph, trial)
                    pubsub = PubSubSystem(overlay)
                    pairs = sample_friend_pairs(graph, config.lookups, seed=rngs[trial])
                    hops = social_lookup_hops(pubsub, pairs)
                    if hops.size:
                        samples.append(float(hops.mean()))
                        stretch.append(route_stretch(overlay, pairs))
                stats = summarize(samples)
                stretch = np.concatenate(stretch)
                rows.append(
                    {
                        "dataset": dataset,
                        "system": system,
                        "size": size,
                        "hops": stats.mean,
                        "ci95": stats.ci95,
                        "stretch": float(stretch.mean()),
                        "stretch_p90": float(np.percentile(stretch, 90)),
                    }
                )
    return rows


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render the Figure 2 series plus SELECT's reduction percentages."""
    table_rows = []
    for r in rows:
        table_rows.append(
            (r["dataset"], pretty(r["system"]), r["size"], r["hops"], r["ci95"],
             r["stretch"], r["stretch_p90"])
        )
    out = format_table(
        headers=["Dataset", "System", "N", "Avg hops", "±95%", "Stretch", "p90"],
        rows=table_rows,
        title="Figure 2: hops per social lookup",
    )
    # Reduction summary at the largest size, as the paper quotes it.
    largest = max(r["size"] for r in rows)
    lines = [out, "", "SELECT hop reduction at largest N:"]
    for dataset in config.datasets:
        at = {r["system"]: r["hops"] for r in rows if r["dataset"] == dataset and r["size"] == largest}
        if "select" not in at:
            continue
        sel = at["select"]
        others = {s: h for s, h in at.items() if s != "select" and h > 0}
        if not others:
            continue
        best_sota = min(others.values())
        sym = others.get("symphony")
        parts = [f"vs best SOTA {100 * (1 - sel / best_sota):.0f}%"]
        if sym:
            parts.insert(0, f"vs Symphony {100 * (1 - sel / sym):.0f}%")
        lines.append(f"  {dataset}: " + ", ".join(parts))
    return "\n".join(lines)
