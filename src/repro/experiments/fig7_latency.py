"""Figure 7 — dissemination latency (realistic experiments).

Every peer gets heterogeneous upload/download bandwidth and coordinate
latency; publishers push 1.2 MB notifications through their dissemination
trees, with each forwarder's upload shared across its simultaneous
transfers. The paper contrasts the unstructured "random" overlay (latency
explodes with fan-out) against SELECT's small linear growth, alongside
the four baselines.

Also includes the §IV-D probe: a central peer pushing one fragment to a
growing number of simultaneous connections shows the *linear* growth in
total transfer time that motivates the latency-aware overlay.
"""

from __future__ import annotations

from repro.experiments import grid
from repro.experiments.common import ExperimentConfig, pretty
from repro.metrics.latency import dissemination_latencies
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.net.transfer import DEFAULT_PAYLOAD_MB, fanout_transfer_time
from repro.pubsub.api import PubSubSystem
from repro.util.rng import RngStream
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report", "simultaneous_transfer_probe"]


def simultaneous_transfer_probe(
    upload_mbps: float = 10.0,
    download_mbps: float = 100.0,
    fanouts=(1, 2, 4, 8, 16, 32),
    size_mb: float = DEFAULT_PAYLOAD_MB,
) -> list[dict]:
    """§IV-D probe: total time to serve N simultaneous 1.2 MB transfers."""
    rows = []
    for f in fanouts:
        total_ms = fanout_transfer_time(size_mb, upload_mbps, download_mbps, fanout=f)
        rows.append({"connections": f, "total_ms": total_ms})
    return rows


def wants(config, size, system, trial) -> bool:
    return size == config.num_nodes and (system in config.systems or system == "random")


def sample(config, cell, rng):
    graph = cell.graph
    env_rng = RngStream(config.seed).child(f"fig7-env:{cell.dataset}:{cell.trial}")
    bandwidth = BandwidthModel(graph.num_nodes, seed=env_rng)
    latency = LatencyModel(graph.num_nodes, seed=env_rng)
    # SELECT's picker is latency-aware: the bandwidth is a build input, so
    # this SELECT is an overlay of its own, not the shared cell.
    overlay = cell.build(bandwidth=bandwidth) if cell.system == "select" else cell.overlay
    publishers = rng.integers(0, graph.num_nodes, size=config.publishers)
    times = dissemination_latencies(PubSubSystem(overlay), publishers, bandwidth, latency)
    return float(times.mean()) if times.size else None


def row(config, dataset, system, size, samples) -> list[dict]:
    stats = summarize([t for t in samples if t is not None])
    return [{"dataset": dataset, "system": system, "latency_ms": stats.mean, "ci95": stats.ci95}]


def run(config: ExperimentConfig) -> list[dict]:
    """Dissemination latency for every dataset × system (plus 'random')."""
    return grid.rows(config, "fig7")


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render Figure 7 plus the simultaneous-transfer probe."""
    out = format_table(
        headers=["Dataset", "System", "Dissemination latency (ms)", "±95%"],
        rows=[(r["dataset"], pretty(r["system"]), r["latency_ms"], r["ci95"]) for r in rows],
        title="Figure 7: average dissemination latency (1.2 MB payloads)",
        float_fmt="{:.0f}",
    )
    probe = simultaneous_transfer_probe()
    probe_table = format_table(
        headers=["Simultaneous connections", "Total transfer time (ms)"],
        rows=[(r["connections"], r["total_ms"]) for r in probe],
        title="§IV-D probe: simultaneous transfers from one peer grow linearly",
        float_fmt="{:.0f}",
    )
    return out + "\n\n" + probe_table
