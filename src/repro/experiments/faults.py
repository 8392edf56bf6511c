"""Fault-injection degradation sweep (beyond the paper's evaluation).

Figure 6 shows SELECT's §III-F recovery holding 100% availability under
churn — but against a faithful network. This experiment stresses the same
claim under *imperfect* networks: per-hop message loss rising from 0% to
20% (with a bounded retransmission budget) plus noisy liveness probes,
for SELECT (recovery through the :class:`~repro.net.faults.PingService`)
versus Symphony (no maintenance). The output is the degradation curve:
loss rate × availability × mean retries per message × false evictions.
"""

from __future__ import annotations

import numpy as np

from repro.core.recovery import RecoveryManager
from repro.experiments.common import (
    ExperimentConfig,
    build_system,
    dataset_graph,
    pretty,
    trial_rngs,
)
from repro.metrics.availability import churn_availability
from repro.net.churn import ChurnModel
from repro.net.faults import FaultPlan, PingService
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report", "LOSS_RATES"]

#: per-hop loss probabilities swept by default (0% .. 20%).
LOSS_RATES = (0.0, 0.02, 0.05, 0.10, 0.20)

_SYSTEMS = ("select", "symphony")

#: probe noise applied at every loss level (the lossy network also loses
#: pings); kept moderate so the suspicion mechanism — not silence — is
#: what protects high-CMA contacts.
PING_FALSE_NEGATIVE = 0.10


def _fault_plan(loss: float, rng: np.random.Generator) -> FaultPlan:
    """The sweep's fault plan at one loss level (seeded per trial)."""
    return FaultPlan(
        loss_rate=loss,
        retry_budget=2,
        ping_false_negative=PING_FALSE_NEGATIVE if loss > 0.0 else 0.0,
        seed=int(rng.integers(2**31 - 1)),
    )


def run(
    config: ExperimentConfig,
    loss_rates: "tuple[float, ...]" = LOSS_RATES,
    ticks: int = 8,
    horizon: float = 2400.0,
) -> list[dict]:
    """Availability degradation per dataset × system × loss rate."""
    rows = []
    rngs = trial_rngs(config, "faults")
    for dataset in config.datasets:
        for system in _SYSTEMS:
            for loss in loss_rates:
                avail = []
                mean_retries = []
                false_evictions = []
                drops = []
                for trial in range(config.trials):
                    graph = dataset_graph(config, dataset, trial)
                    overlay = build_system(config, system, graph, trial)
                    churn = ChurnModel(graph.num_nodes, seed=rngs[trial])
                    matrix = churn.online_matrix(horizon, ticks)
                    faults = _fault_plan(loss, rngs[trial])
                    manager = None
                    repair = None
                    if system == "select":
                        manager = RecoveryManager(overlay, ping_service=PingService(faults))
                        repair = manager.tick
                    points = churn_availability(
                        overlay,
                        matrix,
                        lookups_per_tick=max(10, config.lookups // ticks),
                        repair=repair,
                        faults=faults,
                        seed=rngs[trial],
                    )
                    avail.append(float(np.mean([p.availability for p in points])))
                    mean_retries.append(faults.stats.mean_retries())
                    drops.append(faults.stats.drops)
                    false_evictions.append(manager.false_evictions if manager else 0)
                rows.append(
                    {
                        "dataset": dataset,
                        "system": system,
                        "loss_rate": loss,
                        "availability": summarize(avail).mean,
                        "mean_retries": summarize(mean_retries).mean,
                        "false_evictions": summarize(false_evictions).mean,
                        "drops": summarize(drops).mean,
                    }
                )
    return rows


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render the degradation sweep table."""
    return format_table(
        headers=[
            "Dataset",
            "System",
            "Loss rate",
            "Availability",
            "Retries/msg",
            "False evictions",
            "Drops",
        ],
        rows=[
            (
                r["dataset"],
                pretty(r["system"]),
                f"{r['loss_rate']:.0%}",
                r["availability"],
                r["mean_retries"],
                r["false_evictions"],
                r["drops"],
            )
            for r in rows
        ],
        title="Fault sweep: availability vs per-hop message loss (retry budget = 2)",
    )
