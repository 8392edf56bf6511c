"""Baseline pub/sub systems the paper compares against (Section IV-C).

* :class:`SymphonyOverlay` — Manku et al.'s small-world DHT: uniform ids,
  harmonic long links, greedy routing with lookahead; pub/sub is plain
  unicast over the DHT.
* :class:`BayeuxOverlay` — Zhuang et al.: a prefix-routing DHT (Tapestry)
  with a per-topic rendezvous root and a spanning tree of subscriber join
  paths.
* :class:`VitisOverlay` — Rahimian et al.: ring + gossip-grown interest
  clusters with rendezvous routing between them.
* :class:`OmenOverlay` — Chen et al.: topic-connected overlays built with
  a Greedy-Merge approximation, plus shadow sets for churn repair.

All of them implement the common :class:`~repro.overlay.base.OverlayNetwork`
contract so the experiment harness measures every system identically.
"""

from repro.baselines.symphony import SymphonyOverlay
from repro.baselines.bayeux import BayeuxOverlay
from repro.baselines.random_overlay import RandomOverlay
from repro.baselines.vitis import VitisOverlay
from repro.baselines.omen import OmenOverlay
from repro.baselines.tco import build_tco
from repro.baselines.registry import SYSTEMS, build_overlay, system_names

__all__ = [
    "SymphonyOverlay",
    "BayeuxOverlay",
    "RandomOverlay",
    "VitisOverlay",
    "OmenOverlay",
    "build_tco",
    "SYSTEMS",
    "build_overlay",
    "system_names",
]
