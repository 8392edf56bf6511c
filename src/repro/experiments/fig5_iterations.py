"""Figure 5 — iterations to construct the overlay.

Only the iterative systems participate (Symphony and Bayeux draw their
links in one shot and are excluded, as in the paper). SELECT starts from
the social graph (its bootstrap links are already right) while Vitis and
OMen must *discover* their partners by sampling the whole network — the
paper reports SELECT converging in ~75% fewer iterations. A build that
stops at its round cap unconverged has no iteration count: a cell with
any such trial reads "capped at N (k/T trials)" and is left out of the
convergence advantage.
"""

from __future__ import annotations

from repro.baselines.registry import system_names
from repro.experiments import grid
from repro.experiments.common import ExperimentConfig, pretty, select_margins
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report"]


def wants(config, size, system, trial) -> bool:
    return size == config.num_nodes and system in config.systems and system in system_names(iterative_only=True)


def sample(config, cell, rng):
    return float(cell.overlay.iterations), bool(cell.overlay.converged)


def row(config, dataset, system, size, samples) -> list[dict]:
    stats = summarize([iterations for iterations, _ in samples])
    capped = [iterations for iterations, converged in samples if not converged]
    return [{
        "dataset": dataset, "system": system, "iterations": stats.mean, "ci95": stats.ci95,
        "capped": len(capped), "trials": len(samples), "cap": max(capped, default=0.0),
    }]


def _cells(r) -> tuple:
    """The Iterations and ±95% cells: a capped build has no iteration count."""
    if r["capped"]:
        return f"capped at {r['cap']:.0f} ({r['capped']}/{r['trials']} trials)", "-"
    return r["iterations"], r["ci95"]


def run(config: ExperimentConfig) -> list[dict]:
    """Construction iterations for every dataset × iterative system."""
    return grid.rows(config, "fig5")


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render Figure 5 plus SELECT's convergence advantage."""
    out = format_table(
        headers=["Dataset", "System", "Iterations", "±95%"],
        rows=[(r["dataset"], pretty(r["system"]), *_cells(r)) for r in rows],
        title="Figure 5: iterations to construct the overlay (Symphony/Bayeux excluded)",
    )
    lines = [out, "", "SELECT convergence advantage:"]
    for dataset, sel, others in select_margins(config, rows, "iterations"):
        worst = max(others.values())
        lines.append(f"  {dataset}: {100 * (1 - sel / worst):.0f}% fewer iterations than the slowest baseline")
    return "\n".join(lines)
