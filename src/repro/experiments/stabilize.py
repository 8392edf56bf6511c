"""Self-healing sweep: partition merge speed and catch-up availability.

Beyond the paper's evaluation. A :class:`~repro.net.faults.RingPartition`
cuts the identifier ring in half for its whole window; each side's
stabilizer re-closes its own arc, so at heal time the overlay is two
internally consistent rings. The sweep measures, per successor-list
length ``r`` and per system (SELECT vs Symphony):

* **heal rounds** — stabilization rounds after the cut ends until the
  :mod:`~repro.overlay.doctor` sees one consistent ring again (capped;
  a row at the cap did not converge);
* **partition availability** — plain delivery ratio for notifications
  published *during* the cut (cross-cut subscribers are unreachable);
* **post-heal availability** — delivery ratio for the same publishers
  once the ring has been given its healing rounds;
* **total availability** — including the missed notifications that the
  catch-up buffers handed over after the cut healed.

SELECT's identifiers are socially clustered and its peers know their
neighborhood through gossip, so boundary peers re-adopt their true
cross-cut successors almost immediately; Symphony peers only have the
``successor.predecessor`` walk and harmonic long links, which is the
contrast this sweep quantifies.
"""

from __future__ import annotations

import numpy as np

from repro.core.stabilize import CatchUpStore, Stabilizer
from repro.experiments import grid
from repro.experiments.common import ExperimentConfig, means, pretty
from repro.metrics.healing import stabilize_until_healed
from repro.net.faults import FaultPlan, PingService, RingPartition
from repro.pubsub.api import PubSubSystem
from repro.util.tables import format_table

__all__ = ["run", "report", "R_VALUES", "PARTITION_END", "MAX_HEAL_ROUNDS"]

#: successor-list lengths swept.
R_VALUES = (1, 2, 3, 5)

_SYSTEMS = ("select", "symphony")

#: simulation time at which the injected partition heals.
PARTITION_END = 600.0

#: stabilization-round budget after the heal; a non-converged run reports
#: this cap as its heal time.
MAX_HEAL_ROUNDS = 12

#: fraction of peers that crash right when the partition heals — the
#: worst-case correlated failure the successor lists are for. With
#: ``r = 1`` a peer whose successor crashed has no backup and must
#: rediscover its arc from long links alone.
CRASH_FRACTION = 0.10


def _snapshot(overlay):
    """Ring state of every table (the stabilizer mutates it in place)."""
    cols = overlay.link_columns
    return cols.ring_pred.copy(), cols.ring_succ.copy(), cols.successors.copy()


def _restore(overlay, snapshot) -> None:
    cols = overlay.link_columns
    cols.ring_pred[:], cols.ring_succ[:], cols.successors = (a.copy() for a in snapshot)
    cols.version[0] += 1


def _publish_all(pubsub, publishers, time: float, online=None) -> "tuple[int, int]":
    """(subscribers wanted, subscribers reached) over one publish wave."""
    wanted = 0
    reached = 0
    for publisher in publishers:
        publisher = int(publisher)
        if online is not None and not online[publisher]:
            continue  # offline users do not post
        result = pubsub.publish(publisher, online=online, time=time)
        wanted += len(result.subscribers)
        reached += len(result.delivered)
    return wanted, reached


def wants(config, size, system, trial) -> bool:
    return size == config.num_nodes and system in config.systems and system in _SYSTEMS


def sample(config, cell, rng):
    """One trial at every r, each from the built ring state."""
    graph = cell.graph
    overlay = cell.writable(final=True)
    baseline = _snapshot(overlay)
    # Cut at the id median so the partition splits the
    # population roughly in half.
    median = float(np.median(overlay.ids))
    cut = (median, (median + 0.5) % 1.0)
    publishers = rng.choice(graph.num_nodes, size=min(config.publishers, graph.num_nodes), replace=False)
    crashed = rng.choice(graph.num_nodes, size=int(CRASH_FRACTION * graph.num_nodes), replace=False)
    out = []
    for r in R_VALUES:
        _restore(overlay, baseline)
        plan = FaultPlan(
            partitions=[RingPartition(cut=cut, start=0.0, end=PARTITION_END)],
            seed=config.seed + cell.trial,
        )
        stabilizer = Stabilizer(overlay, PingService(plan), list_length=r)
        catchup = CatchUpStore(overlay, faults=plan)
        pubsub = PubSubSystem(overlay, faults=plan, catchup=catchup)
        # Phase 1 — the cut is active: each side stabilizes
        # itself, publishes lose their cross-cut subscribers
        # (the misses land in the catch-up buffers).
        online = np.ones(graph.num_nodes, dtype=bool)
        for _ in range(3):
            stabilizer.round(online, time=100.0)
        wanted_cut, reached_cut = _publish_all(pubsub, publishers, time=100.0)
        # Phase 2 — the cut heals and CRASH_FRACTION of the
        # peers crash at the same instant: merge the two rings
        # around the fresh holes.
        surviving = online.copy()
        surviving[crashed] = False
        healing = stabilize_until_healed(
            overlay,
            stabilizer,
            surviving,
            time=PARTITION_END + 10.0,
            max_rounds=MAX_HEAL_ROUNDS,
            catchup=catchup,
        )
        # Phase 3 — publish the same wave post-heal.
        wanted_post, reached_post = _publish_all(
            pubsub, publishers, time=PARTITION_END + 20.0, online=surviving
        )
        catchup.deliver(surviving, time=PARTITION_END + 20.0)
        # Phase 4 — the crashed peers return; the buffers hand
        # them everything they slept through.
        catchup.deliver(online, time=PARTITION_END + 120.0)
        wanted = wanted_cut + wanted_post
        got = reached_cut + reached_post + catchup.stats.recovered
        out.append(
            {
                "heal_rounds": healing.rounds_to_heal or MAX_HEAL_ROUNDS,
                "converged": 1.0 if healing.converged else 0.0,
                "partition_availability": reached_cut / wanted_cut if wanted_cut else 1.0,
                "post_heal_availability": reached_post / wanted_post if wanted_post else 1.0,
                "total_availability": min(1.0, got / wanted) if wanted else 1.0,
                "catchup_evictions": catchup.stats.evictions,
            }
        )
    return out


def row(config, dataset, system, size, samples) -> list[dict]:
    return [
        {"dataset": dataset, "system": system, "r": r, **means(runs)}
        for r, runs in zip(R_VALUES, zip(*samples))
    ]


def run(config: ExperimentConfig) -> list[dict]:
    """Heal time and availability per dataset × system × successor-list r."""
    return grid.rows(config, "stabilize")


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render the self-healing sweep table."""
    return format_table(
        headers=[
            "Dataset",
            "System",
            "r",
            "Heal rounds",
            "Avail (cut)",
            "Avail (post-heal)",
            "Avail (total)",
            "Evictions",
        ],
        rows=[
            (
                r["dataset"],
                pretty(r["system"]),
                r["r"],
                r["heal_rounds"],
                r["partition_availability"],
                r["post_heal_availability"],
                r["total_availability"],
                r["catchup_evictions"],
            )
            for r in rows
        ],
        title=(
            "Self-healing sweep: ring-merge speed and catch-up availability "
            f"(partition heals at t={PARTITION_END:.0f}, round cap {MAX_HEAL_ROUNDS})"
        ),
    )
