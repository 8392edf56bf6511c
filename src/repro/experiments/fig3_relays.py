"""Figure 3 — relay nodes per pub/sub routing path.

For each dataset × system, publishers post notifications and we count
relay nodes (on-path non-subscribers) per publisher→subscriber path and
distinct relays per dissemination tree. The paper reports SELECT at >98%
fewer relays than all four baselines (headline: up to 89% fewer vs the
state of the art across settings).
"""

from __future__ import annotations

from repro.experiments import grid
from repro.experiments.common import ExperimentConfig, pretty, select_margins
from repro.metrics.relays import publish_relays
from repro.pubsub.api import PubSubSystem
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report"]


def wants(config, size, system, trial) -> bool:
    return size == config.num_nodes and system in config.systems


def sample(config, cell, rng):
    publishers = rng.integers(0, cell.graph.num_nodes, size=config.publishers)
    stats = publish_relays(PubSubSystem(cell.overlay), publishers)
    return stats.mean_per_path, stats.mean_per_tree


def row(config, dataset, system, size, samples) -> list[dict]:
    per_path, per_tree = (summarize(values) for values in zip(*samples))
    return [{"dataset": dataset, "system": system, "relays_per_path": per_path.mean,
             "relays_per_tree": per_tree.mean, "ci95": per_path.ci95}]


def run(config: ExperimentConfig) -> list[dict]:
    """Relay counts for every dataset × system."""
    return grid.rows(config, "fig3")


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
    for dataset, sel, others in select_margins(config, rows, "relays_per_path"):
        best = min(others.values())
        worst = max(others.values())
        lines.append(
            f"  {dataset}: vs best SOTA {100 * (1 - sel / best):.0f}%, vs worst {100 * (1 - sel / worst):.0f}%"
        )
    return "\n".join(lines)
