"""Figure 5 — iterations to construct the overlay.

Only the iterative systems participate (Symphony and Bayeux draw their
links in one shot and are excluded, as in the paper). SELECT starts from
the social graph (its bootstrap links are already right) while Vitis and
OMen must *discover* their partners by sampling the whole network — the
paper reports SELECT converging in ~75% fewer iterations.
"""

from __future__ import annotations

from repro.baselines.registry import system_names
from repro.experiments.common import (
    ExperimentConfig,
    build_system,
    dataset_graph,
    pretty,
)
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report"]


def run(config: ExperimentConfig) -> list[dict]:
    """Measure construction iterations for every dataset × iterative system."""
    rows = []
    iterative = [s for s in config.systems if s in system_names(iterative_only=True)]
    for dataset in config.datasets:
        for system in iterative:
            iterations = []
            for trial in range(config.trials):
                graph = dataset_graph(config, dataset, trial)
                overlay = build_system(config, system, graph, trial)
                iterations.append(float(overlay.iterations))
            stats = summarize(iterations)
            rows.append(
                {
                    "dataset": dataset,
                    "system": system,
                    "iterations": stats.mean,
                    "ci95": stats.ci95,
                }
            )
    return rows


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render Figure 5 plus SELECT's convergence advantage."""
    out = format_table(
        headers=["Dataset", "System", "Iterations", "±95%"],
        rows=[(r["dataset"], pretty(r["system"]), r["iterations"], r["ci95"]) for r in rows],
        title="Figure 5: iterations to construct the overlay (Symphony/Bayeux excluded)",
    )
    lines = [out, "", "SELECT convergence advantage:"]
    for dataset in config.datasets:
        at = {r["system"]: r["iterations"] for r in rows if r["dataset"] == dataset}
        if "select" not in at:
            continue
        sel = at["select"]
        others = {s: v for s, v in at.items() if s != "select" and v > 0}
        if not others:
            continue
        worst = max(others.values())
        lines.append(f"  {dataset}: {100 * (1 - sel / worst):.0f}% fewer iterations than the slowest baseline")
    return "\n".join(lines)
