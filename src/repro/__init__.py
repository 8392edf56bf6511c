"""repro — a reproduction of *SELECT: A Distributed Publish/Subscribe
Notification System for Online Social Networks* (Apolónia et al., IPDPS
2018).

Quickstart::

    from repro import load_dataset, SelectOverlay, PubSubSystem

    graph = load_dataset("facebook", num_nodes=500, seed=7)
    overlay = SelectOverlay(graph).build(seed=7)
    pubsub = PubSubSystem(overlay)
    result = pubsub.publish(publisher=0)
    print(result.delivery_ratio, result.relay_nodes)

Packages:

* :mod:`repro.core` — SELECT itself (projection, reassignment, gossip,
  LSH link selection, recovery).
* :mod:`repro.baselines` — Symphony, Bayeux, Vitis, OMen, Random.
* :mod:`repro.pubsub` — the social pub/sub layer over any overlay.
* :mod:`repro.graphs`, :mod:`repro.net`, :mod:`repro.sim` — substrates
  (datasets, network models, simulation engine).
* :mod:`repro.metrics`, :mod:`repro.experiments` — the paper's
  measurements and the per-figure harness.
* :mod:`repro.telemetry` — metrics registry, causal span tracing,
  Prometheus/JSON exporters and run reports (opt-in; the default
  :class:`~repro.telemetry.NullRegistry` is zero-overhead).
* :mod:`repro.persist` — versioned checkpoint/restore of live overlay
  state plus deterministic replay (a resumed run is bit-identical to an
  uninterrupted one).
* :mod:`repro.scenarios` — named chaos scenarios: adversarial load
  shapers, scripted correlated failures, per-peer overload protection,
  and SLO specs evaluated into schema-validated verdicts.
* :mod:`repro.live` — live asyncio runtime: hundreds of in-process
  nodes over a loopback transport with SWIM-style membership, a
  retry/timeout/backoff request layer, supervised restarts, and
  degradation into the catch-up store.
"""

from repro.core.config import SelectConfig
from repro.core.recovery import RecoveryManager
from repro.core.select import SelectOverlay
from repro.core.stabilize import CatchUpStore, Stabilizer
from repro.overlay.doctor import DoctorReport, check_overlay
from repro.baselines.registry import build_overlay, system_names
from repro.graphs.datasets import available_datasets, load_dataset
from repro.graphs.graph import SocialGraph
from repro.net.faults import FaultPlan, PingService, RingPartition
from repro.pubsub.api import PubSubSystem
from repro.persist import (
    capture as capture_snapshot,
    load as load_snapshot,
    restore as restore_snapshot,
    save as save_snapshot,
)
from repro.experiments.common import ExperimentConfig
from repro.scenarios import (
    OverloadConfig,
    OverloadGuard,
    Scenario,
    ScenarioResult,
    SLOSpec,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.telemetry import (
    MetricsRegistry,
    NullRegistry,
    Tracer,
    set_registry,
    set_tracer,
    use_registry,
    use_tracer,
)
from repro.live import (
    LiveCluster,
    LiveConfig,
    LiveScenario,
    get_live_scenario,
    live_scenario_names,
)
from repro.util.exceptions import (
    FaultInjectionError,
    PartitionError,
    PeerUnreachable,
    ReproError,
    RetryBudgetExhausted,
    TransientError,
)

__version__ = "1.0.0"

__all__ = [
    "SelectConfig",
    "SelectOverlay",
    "RecoveryManager",
    "Stabilizer",
    "CatchUpStore",
    "DoctorReport",
    "check_overlay",
    "build_overlay",
    "system_names",
    "available_datasets",
    "load_dataset",
    "SocialGraph",
    "PubSubSystem",
    "ExperimentConfig",
    "FaultPlan",
    "PingService",
    "RingPartition",
    "FaultInjectionError",
    "PartitionError",
    "ReproError",
    "TransientError",
    "RetryBudgetExhausted",
    "PeerUnreachable",
    "LiveCluster",
    "LiveConfig",
    "LiveScenario",
    "get_live_scenario",
    "live_scenario_names",
    "capture_snapshot",
    "load_snapshot",
    "restore_snapshot",
    "save_snapshot",
    "OverloadConfig",
    "OverloadGuard",
    "Scenario",
    "ScenarioResult",
    "SLOSpec",
    "get_scenario",
    "run_scenario",
    "scenario_names",
    "MetricsRegistry",
    "NullRegistry",
    "Tracer",
    "set_registry",
    "set_tracer",
    "use_registry",
    "use_tracer",
    "__version__",
]
