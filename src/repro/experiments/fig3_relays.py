"""Figure 3 — relay nodes per pub/sub routing path.

For each dataset × system, publishers post notifications and we count
relay nodes (on-path non-subscribers) per publisher→subscriber path and
distinct relays per dissemination tree. The paper reports SELECT at >98%
fewer relays than all four baselines (headline: up to 89% fewer vs the
state of the art across settings).
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentConfig,
    build_system,
    dataset_graph,
    pretty,
    trial_rngs,
)
from repro.metrics.relays import publish_relays
from repro.pubsub.api import PubSubSystem
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report"]


def run(config: ExperimentConfig) -> list[dict]:
    """Measure relay counts for every dataset × system."""
    rows = []
    rngs = trial_rngs(config, "fig3")
    for dataset in config.datasets:
        for system in config.systems:
            per_path = []
            per_tree = []
            for trial in range(config.trials):
                graph = dataset_graph(config, dataset, trial)
                overlay = build_system(config, system, graph, trial)
                pubsub = PubSubSystem(overlay)
                publishers = rngs[trial].integers(0, graph.num_nodes, size=config.publishers)
                stats = publish_relays(pubsub, publishers)
                per_path.append(stats.mean_per_path)
                per_tree.append(stats.mean_per_tree)
            rows.append(
                {
                    "dataset": dataset,
                    "system": system,
                    "relays_per_path": summarize(per_path).mean,
                    "relays_per_tree": summarize(per_tree).mean,
                    "ci95": summarize(per_path).ci95,
                }
            )
    return rows


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render Figure 3's numbers plus SELECT's reduction percentages."""
    out = format_table(
        headers=["Dataset", "System", "Relays/path", "±95%", "Relays/tree"],
        rows=[
            (r["dataset"], pretty(r["system"]), r["relays_per_path"], r["ci95"], r["relays_per_tree"])
            for r in rows
        ],
        title="Figure 3: relay nodes per pub/sub routing path",
    )
    lines = [out, "", "SELECT relay reduction:"]
    for dataset in config.datasets:
        at = {r["system"]: r["relays_per_path"] for r in rows if r["dataset"] == dataset}
        if "select" not in at:
            continue
        sel = at["select"]
        others = {s: v for s, v in at.items() if s != "select" and v > 0}
        if not others:
            continue
        best = min(others.values())
        worst = max(others.values())
        lines.append(
            f"  {dataset}: vs best SOTA {100 * (1 - sel / best):.0f}%, vs worst {100 * (1 - sel / worst):.0f}%"
        )
    return "\n".join(lines)
