"""Figure 2 — average hops per social lookup vs network size.

Per dataset, the network grows through a set of sizes; at each size every
system's overlay is built and the mean hop count of publisher→subscriber
lookups measured. The paper reports SELECT at 75–85% fewer hops than
Symphony and 41–65% fewer than the best state of the art. Beside the hops,
their stretch over the shortest paths the overlay's own links hold.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import grid
from repro.experiments.common import ExperimentConfig, pretty, select_margins
from repro.metrics.hops import route_stretch, sample_friend_pairs, social_lookup_hops
from repro.pubsub.api import PubSubSystem
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report"]


def wants(config, size, system, trial) -> bool:
    return system in config.systems


def sample(config, cell, rng):
    pairs = sample_friend_pairs(cell.graph, config.lookups, seed=rng)
    hops = social_lookup_hops(PubSubSystem(cell.overlay), pairs)
    return (float(hops.mean()), route_stretch(cell.overlay, pairs)) if hops.size else None


def row(config, dataset, system, size, samples) -> list[dict]:
    hops, stretch = zip(*(s for s in samples if s is not None))
    stats, stretch = summarize(hops), np.concatenate(stretch)
    return [{"dataset": dataset, "system": system, "size": size, "hops": stats.mean, "ci95": stats.ci95,
             "stretch": float(stretch.mean()), "stretch_p90": float(np.percentile(stretch, 90))}]


def run(config: ExperimentConfig) -> list[dict]:
    """Mean lookup hops and their stretch for every dataset × size × system."""
    return grid.rows(config, "fig2")


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
    # Reduction summary at the largest size, N, as the paper quotes it.
    lines = [out, "", "SELECT hop reduction at largest N:"]
    at_largest = [r for r in rows if r["size"] == config.num_nodes]
    for dataset, sel, others in select_margins(config, at_largest, "hops"):
        sym = others.get("symphony")
        parts = [f"vs best SOTA {100 * (1 - sel / min(others.values())):.0f}%"]
        if sym:
            parts.insert(0, f"vs Symphony {100 * (1 - sel / sym):.0f}%")
        lines.append(f"  {dataset}: " + ", ".join(parts))
    return "\n".join(lines)
