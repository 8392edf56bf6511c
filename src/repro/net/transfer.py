"""Transfer-time model (1.2 MB notification payloads, §IV-D).

The paper's probe experiment found that the cost driver is not the number
of connections but *simultaneous* transfers: a peer pushing the same 1.2 MB
fragment to ``f`` neighbors at once shares its upload capacity ``f`` ways,
so total time grows linearly in ``f``. These functions reproduce that
model and extend it along dissemination paths and trees.
"""

from __future__ import annotations

from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.util.exceptions import ConfigurationError

__all__ = ["fanout_transfer_time", "path_transfer_time", "tree_dissemination_time"]

DEFAULT_PAYLOAD_MB = 1.2


def fanout_transfer_time(size_mb: float, upload_mbps: float, download_mbps: float, fanout: int = 1) -> float:
    """Milliseconds to push ``size_mb`` to ``fanout`` receivers at once.

    The sender's upload is split evenly across the simultaneous transfers;
    each receiver is additionally capped by its own download rate (we use
    one representative download rate for the batch).
    """
    if size_mb <= 0:
        raise ConfigurationError(f"size_mb must be positive, got {size_mb}")
    if fanout <= 0:
        raise ConfigurationError(f"fanout must be positive, got {fanout}")
    if upload_mbps <= 0 or download_mbps <= 0:
        raise ConfigurationError("bandwidths must be positive")
    effective_up = upload_mbps / fanout
    rate = min(effective_up, download_mbps)  # Mbps
    return (size_mb * 8.0) / rate * 1000.0  # ms


def path_transfer_time(
    path,
    bandwidth: BandwidthModel,
    latency: LatencyModel,
    size_mb: float = DEFAULT_PAYLOAD_MB,
) -> float:
    """End-to-end time along a relay path: per-hop latency + store-and-forward."""
    nodes = list(path)
    total = 0.0
    for i in range(len(nodes) - 1):
        u, v = nodes[i], nodes[i + 1]
        total += latency.latency(u, v)
        total += fanout_transfer_time(
            size_mb, float(bandwidth.upload_mbps[u]), float(bandwidth.download_mbps[v]), fanout=1
        )
    return total


def tree_dissemination_time(
    tree_children: dict,
    root: int,
    bandwidth: BandwidthModel,
    latency: LatencyModel,
    size_mb: float = DEFAULT_PAYLOAD_MB,
) -> float:
    """Completion time of a dissemination tree (paper Eq. 1: max over leaves).

    ``tree_children`` maps each node to the list of children it forwards to.
    Each forwarding node pushes to all of its children simultaneously, so
    its per-child rate is its upload divided by its fan-out.
    """
    arrival = {root: 0.0}
    worst = 0.0
    stack = [root]
    while stack:
        u = stack.pop()
        children = tree_children.get(u, [])
        if not children:
            worst = max(worst, arrival[u])
            continue
        fanout = len(children)
        for v in children:
            if v in arrival:
                raise ConfigurationError(f"node {v} reached twice; tree_children is not a tree")
            t = (
                arrival[u]
                + latency.latency(u, v)
                + fanout_transfer_time(
                    size_mb,
                    float(bandwidth.upload_mbps[u]),
                    float(bandwidth.download_mbps[v]),
                    fanout=fanout,
                )
            )
            arrival[v] = t
            worst = max(worst, t)
            stack.append(v)
    return worst

