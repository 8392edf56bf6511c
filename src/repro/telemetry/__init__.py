"""repro.telemetry — metrics registry, causal tracing, and run reports.

The measurement substrate the ROADMAP's perf work needs: a
process-wide but explicitly-injectable :class:`MetricsRegistry`
(counters, gauges, fixed-bucket histograms, phase timers), one
:class:`Tracer` whose ``select-repro/live-trace/v1`` causal chains
follow a simulator publish or lookup, or a live notification, hop by
hop (a simulator relay carries the router's greedy/lookahead decision),
and exporters (Prometheus text + structured JSON run report) rendered
back by ``select-repro report``; ``select-repro trace`` draws the chains.

The default registry is the zero-overhead :class:`NullRegistry` —
pinned bit-identical to seed behaviour the same way
``FaultPlan.none()`` is — so nothing changes unless a caller installs
real telemetry (``select-repro <exp> --telemetry DIR`` or
:func:`set_registry`/:func:`set_tracer`). ``select-repro validate DIR``
schema-checks a written directory (:mod:`repro.validate`).
"""

from repro.telemetry.export import (
    prometheus_text,
    registry_snapshot,
    write_telemetry,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    HOP_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    Timer,
    get_registry,
    set_registry,
    use_registry,
)
from repro.telemetry.report import load_report, render_report
from repro.telemetry.tracer import Tracer, get_tracer, set_tracer, use_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HOP_BUCKETS",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "registry_snapshot",
    "prometheus_text",
    "write_telemetry",
    "load_report",
    "render_report",
]
