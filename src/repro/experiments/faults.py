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
from repro.experiments import grid
from repro.experiments.common import ExperimentConfig, means, pretty
from repro.metrics.availability import churn_availability
from repro.net.churn import ChurnModel
from repro.net.faults import FaultPlan, PingService
from repro.util.tables import format_table

__all__ = ["run", "report", "LOSS_RATES", "TICKS", "HORIZON"]

#: per-hop loss probabilities swept (0% .. 20%).
LOSS_RATES = (0.0, 0.02, 0.05, 0.10, 0.20)

#: churn ticks per run, and the simulated seconds they span.
TICKS = 8
HORIZON = 2400.0

_SYSTEMS = ("select", "symphony")

#: probe noise applied at every loss level (the lossy network also loses
#: pings); kept moderate so the suspicion mechanism — not silence — is
#: what protects high-CMA contacts.
PING_FALSE_NEGATIVE = 0.10


def wants(config, size, system, trial) -> bool:
    return size == config.num_nodes and system in config.systems and system in _SYSTEMS


def _availability(config, overlay, loss: float, rng, repair: bool) -> dict:
    """One churn run over ``overlay`` at one loss level, with SELECT's repair or none."""
    churn = ChurnModel(overlay.graph.num_nodes, seed=rng)
    matrix = churn.online_matrix(HORIZON, TICKS)
    faults = FaultPlan(
        loss_rate=loss,
        retry_budget=2,
        ping_false_negative=PING_FALSE_NEGATIVE if loss > 0.0 else 0.0,
        seed=int(rng.integers(2**31 - 1)),
    )
    manager = RecoveryManager(overlay, ping_service=PingService(faults)) if repair else None
    points = churn_availability(
        overlay,
        matrix,
        lookups_per_tick=max(10, config.lookups // TICKS),
        repair=manager.tick if manager else None,
        faults=faults,
        seed=rng,
    )
    return {
        "availability": float(np.mean([p.availability for p in points])),
        "mean_retries": faults.stats.mean_retries(),
        "false_evictions": manager.false_evictions if manager else 0,
        "drops": faults.stats.drops,
    }


def sample(config, cell, rng):
    """One trial at every loss level, in order, each on an untouched overlay:
    Symphony only reads the cell, SELECT's recovery rewrites tables, so each
    level gets its own copy."""
    if cell.system != "select":
        return [_availability(config, cell.overlay, loss, rng, repair=False) for loss in LOSS_RATES]
    last = len(LOSS_RATES) - 1
    return [
        _availability(config, cell.writable(final=i == last), loss, rng, repair=True)
        for i, loss in enumerate(LOSS_RATES)
    ]


def row(config, dataset, system, size, samples) -> list[dict]:
    return [
        {"dataset": dataset, "system": system, "loss_rate": loss, **means(runs)}
        for loss, runs in zip(LOSS_RATES, zip(*samples))
    ]


def run(config: ExperimentConfig) -> list[dict]:
    """Availability degradation per dataset × system × loss rate."""
    return grid.rows(config, "faults")


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
