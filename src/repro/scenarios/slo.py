"""Per-scenario SLO specs evaluated into ``verdict.json``.

A scenario is only a regression test if it ends in a machine-checkable
pass/fail. :class:`SLOSpec` declares the service-level objectives a run
must hold — an availability floor, p99 ceilings on hops and latency,
caps on silent drops and on load shed to the catch-up path — and
:func:`build_verdict` evaluates them against the simulation report and
the run's telemetry registry (hop percentiles come from the PR 3
``publish.hops`` histogram) into a ``select-repro/verdict/v1`` document:
one objective row per configured threshold, each with its observed
value and signed margin (positive = satisfied), plus an overall verdict.

Verdicts are bit-reproducible: every observed value is derived from the
seeded simulation (fixed-bucket histogram quantiles, nearest-rank
latency percentiles — no wall-clock anywhere), and the JSON is written
with sorted keys, so the CI determinism gate can compare files byte for
byte.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.sim.runner import SimulationReport
from repro.util.atomicio import atomic_write_json
from repro.util.exceptions import ConfigurationError

__all__ = [
    "VERDICT_SCHEMA",
    "VERDICT_FILE",
    "SLOSpec",
    "LIVE_TRACE_SLO",
    "build_verdict",
    "evaluate_live_trace",
    "write_verdict",
]

VERDICT_SCHEMA = "select-repro/verdict/v1"
VERDICT_FILE = "verdict.json"


def _nearest_rank(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class SLOSpec:
    """Objectives a scenario run must satisfy (``None`` = not required).

    Floors are satisfied when ``observed >= threshold``; ceilings when
    ``observed <= threshold``. ``availability`` counts only first-pass
    delivery; ``total_availability`` also credits catch-up recoveries —
    the right floor for protected scenarios whose whole point is to
    degrade into the catch-up path instead of dropping.
    """

    availability_floor: "float | None" = None
    total_availability_floor: "float | None" = None
    p99_hops_ceiling: "float | None" = None
    p99_latency_ms_ceiling: "float | None" = None
    max_drop_rate: "float | None" = None
    max_shed_rate: "float | None" = None

    def __post_init__(self):
        for name in ("availability_floor", "total_availability_floor"):
            v = getattr(self, name)
            if v is not None and not (0.0 <= v <= 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1], got {v}")
        for name in (
            "p99_hops_ceiling",
            "p99_latency_ms_ceiling",
            "max_drop_rate",
            "max_shed_rate",
        ):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {v}")

    def objectives(self, observed: dict) -> "list[dict]":
        """One row per configured threshold, evaluated against ``observed``."""
        spec = [
            ("availability", "floor", self.availability_floor),
            ("total_availability", "floor", self.total_availability_floor),
            ("p99_hops", "ceiling", self.p99_hops_ceiling),
            ("p99_latency_ms", "ceiling", self.p99_latency_ms_ceiling),
            ("drop_rate", "ceiling", self.max_drop_rate),
            ("shed_rate", "ceiling", self.max_shed_rate),
        ]
        rows = []
        for name, kind, threshold in spec:
            if threshold is None:
                continue
            value = observed[name]
            margin = (value - threshold) if kind == "floor" else (threshold - value)
            rows.append(
                {
                    "name": name,
                    "kind": kind,
                    "threshold": float(threshold),
                    "observed": float(value),
                    "margin": float(margin),
                    "passed": bool(margin >= 0.0),
                }
            )
        return rows


#: the default objectives a *traced live run* must hold, judged against
#: trace-derived evidence (:func:`repro.telemetry.tracer.summarize`)
#: rather than the publisher's own counters. ``total_availability`` here
#: is the complete-causal-chain ratio — a pair only counts if its whole
#: publish→delivery story is reconstructable from spans — and the hop
#: ceiling bounds the overlay detour even under crashes and partitions.
#: No wall-clock latency ceiling by default: live runs ride the real
#: event loop, and a shared-CI scheduling hiccup must not fail the SLO.
LIVE_TRACE_SLO = SLOSpec(
    total_availability_floor=0.99,
    p99_hops_ceiling=24.0,
)


def _live_trace_observed(summary: dict) -> dict:
    """Map a live-trace summary onto the SLO objective vocabulary."""
    n = int(summary.get("traces", 0))
    terminals = summary.get("terminals", {})
    delivered = int(terminals.get("delivered", 0))
    unresolved = int(terminals.get("pending", 0)) + int(terminals.get("none", 0))
    recovered = int(terminals.get("recovered", 0))
    return {
        "availability": (delivered / n) if n else 1.0,
        "total_availability": float(summary.get("complete_chain_ratio", 1.0)),
        "p99_hops": _nearest_rank([float(h) for h in summary.get("hops", [])], 0.99),
        "p99_latency_ms": _nearest_rank(
            [float(v) for v in summary.get("latency_ms", [])], 0.99
        ),
        # "drops" here are causal-chain failures: a pair whose story has
        # holes (orphans) or never resolved is observability loss even
        # when the notification itself arrived.
        "drop_rate": ((int(summary.get("orphan_spans", 0)) + unresolved) / n)
        if n
        else 0.0,
        "shed_rate": ((recovered + unresolved) / n) if n else 0.0,
    }


def evaluate_live_trace(summary: dict, slo: "SLOSpec | None" = None) -> dict:
    """Judge one traced live run's chain summary against an SLO spec.

    Returns ``{"observed", "objectives", "passed"}`` — the same row shape
    as :func:`build_verdict`, embeddable in the live run's report.
    """
    slo = slo if slo is not None else LIVE_TRACE_SLO
    observed = _live_trace_observed(summary)
    objectives = slo.objectives(observed)
    return {
        "observed": observed,
        "objectives": objectives,
        "passed": bool(all(o["passed"] for o in objectives)),
    }


def _observe(report: SimulationReport, registry=None) -> dict:
    """The metric snapshot objectives are judged against."""
    wanted = sum(r.subscribers_online for r in report.records)
    shed = sum(getattr(r, "shed", 0) for r in report.records)
    p99_hops = 0.0
    if registry is not None:
        hist = registry.histograms().get("publish.hops")
        if hist is not None and hist.count:
            p99_hops = float(hist.quantile(0.99))
    latencies = [r.latency_ms for r in report.records if r.delivered]
    return {
        "notifications": report.notifications,
        "availability": float(report.availability),
        "total_availability": float(report.total_availability),
        "drops": int(report.drops),
        "shed": int(shed),
        "drop_rate": (report.drops / wanted) if wanted else 0.0,
        "shed_rate": (shed / wanted) if wanted else 0.0,
        "catchup_recovered": int(report.catchup_recovered),
        "maintenance_ticks": int(report.maintenance_ticks),
        "mean_latency_ms": float(report.mean_latency_ms),
        "p99_hops": p99_hops,
        "p99_latency_ms": _nearest_rank(latencies, 0.99),
        "mean_partition_heal_time": float(report.mean_partition_heal_time),
    }


def build_verdict(
    scenario: str,
    slo: SLOSpec,
    report: SimulationReport,
    *,
    seed: int,
    num_nodes: int,
    horizon: float,
    registry=None,
    overload_stats: "dict | None" = None,
    fault_stats: "dict | None" = None,
    provenance: "dict | None" = None,
) -> dict:
    """Evaluate ``slo`` over one finished run into a verdict document."""
    observed = _observe(report, registry=registry)
    objectives = slo.objectives(observed)
    return {
        "schema": VERDICT_SCHEMA,
        "scenario": str(scenario),
        "seed": int(seed),
        "num_nodes": int(num_nodes),
        "horizon": float(horizon),
        "passed": bool(all(o["passed"] for o in objectives)),
        "objectives": objectives,
        "observed": {
            **observed,
            "overload": overload_stats,
            "faults": fault_stats,
        },
        "provenance": provenance
        if provenance is not None
        else {"root_seed": int(seed), "config_hash": None, "snapshot_id": None},
    }


def write_verdict(verdict: dict, path: str) -> str:
    """Write a verdict document with a byte-stable encoding; returns the path.

    The write is atomic (tmp + fsync + replace): CI's determinism gate
    compares verdicts byte for byte, so a truncated file must be
    impossible even under SIGKILL.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    return atomic_write_json(path, verdict, indent=2, sort_keys=True)
