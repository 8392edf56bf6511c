"""repro.scenarios — adversarial workloads, overload protection, SLO verdicts.

The scenario engine turns the simulator into a chaos-benchmark harness:

* :mod:`repro.scenarios.shapers` — composable time-varying load shapers
  (diurnal curve, flash crowd, celebrity publisher) over
  :class:`~repro.net.workload.PublishWorkload`;
* :mod:`repro.scenarios.scripts` — correlated failure scripts (regional
  outage, partition storm) compiled down to the
  existing :class:`~repro.net.faults.FaultPlan` machinery;
* :mod:`repro.scenarios.overload` — bounded per-peer forwarding queues
  with optional protection: priority admission for direct-subscriber
  hops, bounded retry with backoff, shed-to-catch-up degradation;
* :mod:`repro.scenarios.slo` — per-scenario SLO specs evaluated from the
  run's telemetry into a schema-validated ``verdict.json``;
* :mod:`repro.scenarios.catalog` / :mod:`repro.scenarios.runner` — the
  named scenario registry and the deterministic end-to-end driver
  (``select-repro scenario NAME``).

Every scenario runs bit-reproducibly under a fixed seed and resumes
through the persist layer's snapshot path.
"""

from repro.scenarios.catalog import SCENARIOS, Scenario, get_scenario, register, scenario_names
from repro.scenarios.overload import OverloadConfig, OverloadGuard, OverloadStats
from repro.scenarios.runner import ScenarioResult, run_scenario
from repro.scenarios.scripts import FaultScript, partition_storm, regional_outage
from repro.scenarios.shapers import (
    CelebrityShaper,
    DiurnalShaper,
    FlashCrowdShaper,
    LoadShaper,
    ShapedWorkload,
)
from repro.scenarios.slo import VERDICT_SCHEMA, SLOSpec, build_verdict, write_verdict

__all__ = [
    "SCENARIOS",
    "Scenario",
    "register",
    "get_scenario",
    "scenario_names",
    "ScenarioResult",
    "run_scenario",
    "OverloadConfig",
    "OverloadGuard",
    "OverloadStats",
    "FaultScript",
    "regional_outage",
    "partition_storm",
    "LoadShaper",
    "DiurnalShaper",
    "FlashCrowdShaper",
    "CelebrityShaper",
    "ShapedWorkload",
    "SLOSpec",
    "VERDICT_SCHEMA",
    "build_verdict",
    "write_verdict",
]
