"""Figure 6 — communication availability under churn.

The paper's Figure 6 plots, per dataset, the node churn (dash line) and
SELECT's data availability (continuous line) over a long run in which
peers join/leave every tick but at least half the network stays online.
SELECT's CMA+LSH recovery replaces chronically offline contacts and
re-stitches the ring, keeping availability at 100%.

We reproduce that series and add the mechanism's ablation: the same
overlay with recovery disabled forwards blindly on stale tables and loses
messages, showing the recovery is what earns the flat 100% line.
"""

from __future__ import annotations

import numpy as np

from repro.core.recovery import RecoveryManager
from repro.experiments import grid
from repro.experiments.common import ExperimentConfig, means
from repro.metrics.availability import churn_availability
from repro.net.churn import ChurnModel
from repro.util.tables import format_table

__all__ = ["run", "report", "TICKS", "HORIZON"]

#: churn ticks in one run: the length of the availability series.
TICKS = 12
#: simulated seconds the ticks span.
HORIZON = 3600.0

#: one row per variant, in the order each trial runs them
_VARIANTS = ("SELECT (recovery)", "SELECT (no recovery)")


def wants(config, size, system, trial) -> bool:
    return size == config.num_nodes and system == "select"


def _churn(config, overlay, rng, recovery: bool):
    """One churn run: its availability and churn level, and the per-tick series."""
    churn = ChurnModel(overlay.graph.num_nodes, seed=rng)
    matrix = churn.online_matrix(HORIZON, TICKS)
    points = churn_availability(
        overlay,
        matrix,
        lookups_per_tick=max(10, config.lookups // TICKS),
        repair=RecoveryManager(overlay).tick if recovery else None,
        seed=rng,
    )
    avail = np.array([p.availability for p in points])
    stats = {"mean_availability": float(avail.mean()), "min_availability": float(avail.min()),
             "churn_level": 1.0 - float(np.mean([p.online_fraction for p in points]))}
    return stats, avail


def sample(config, cell, rng):
    # Recovery rewrites tables, so it runs on a copy; without it the run only reads.
    with_recovery = _churn(config, cell.writable(final=False), rng, recovery=True)
    return with_recovery, _churn(config, cell.overlay, rng, recovery=False)


def row(config, dataset, system, size, samples) -> list[dict]:
    rows = []
    for label, runs in zip(_VARIANTS, zip(*samples)):
        stats, series = zip(*runs)
        rows.append({"dataset": dataset, "variant": label, **means(stats),
                     "availability_series": list(sum(series) / config.trials)})
    return rows


def run(config: ExperimentConfig) -> list[dict]:
    """Per-dataset availability under churn, with and without recovery."""
    return grid.rows(config, "fig6")


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render the Figure 6 series summary."""
    return format_table(
        headers=["Dataset", "Variant", "Availability", "Worst tick", "Node churn"],
        rows=[
            (
                r["dataset"],
                r["variant"],
                r["mean_availability"],
                r["min_availability"],
                r["churn_level"],
            )
            for r in rows
        ],
        title="Figure 6: data availability under churn (dash line = churn level)",
    )
