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
from repro.experiments.common import (
    ExperimentConfig,
    build_system,
    dataset_graph,
    trial_rngs,
)
from repro.metrics.availability import churn_availability
from repro.net.churn import ChurnModel
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report"]

_VARIANTS = (
    ("SELECT (recovery)", True),
    ("SELECT (no recovery)", False),
)


def run(config: ExperimentConfig, ticks: int = 12, horizon: float = 3600.0) -> list[dict]:
    """Per-dataset availability under churn, with and without recovery."""
    rows = []
    rngs = trial_rngs(config, "fig6")
    for dataset in config.datasets:
        for label, with_recovery in _VARIANTS:
            mean_avail = []
            min_avail = []
            churn_level = []
            series_acc = np.zeros(ticks, dtype=np.float64)
            for trial in range(config.trials):
                graph = dataset_graph(config, dataset, trial)
                overlay = build_system(config, "select", graph, trial)
                churn = ChurnModel(graph.num_nodes, seed=rngs[trial])
                matrix = churn.online_matrix(horizon, ticks)
                repair = RecoveryManager(overlay).tick if with_recovery else None
                points = churn_availability(
                    overlay,
                    matrix,
                    lookups_per_tick=max(10, config.lookups // ticks),
                    repair=repair,
                    seed=rngs[trial],
                )
                avail = np.array([p.availability for p in points])
                series_acc += avail
                mean_avail.append(float(avail.mean()))
                min_avail.append(float(avail.min()))
                churn_level.append(1.0 - float(np.mean([p.online_fraction for p in points])))
            rows.append(
                {
                    "dataset": dataset,
                    "variant": label,
                    "mean_availability": summarize(mean_avail).mean,
                    "min_availability": summarize(min_avail).mean,
                    "churn_level": summarize(churn_level).mean,
                    "availability_series": list(series_acc / config.trials),
                }
            )
    return rows


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
