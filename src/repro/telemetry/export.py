"""Telemetry exporters: Prometheus text format and JSON run reports.

A telemetry directory written by :func:`write_telemetry` contains:

* ``metrics.prom``  — Prometheus text exposition of every instrument;
* ``report.json``   — structured run report: metadata, counters, gauges,
  histograms (edges + per-bucket counts + sum/count), trace summary;
* ``traces.jsonl``  — per-message route spans (when a tracer ran);
* ``series.jsonl``  — per-round scalar series (when a recorder ran).

``select-repro report DIR`` renders these files back into text
(:mod:`repro.telemetry.report`) and ``select-repro validate DIR``
schema-checks them in CI (:mod:`repro.validate`).
"""

from __future__ import annotations

import os

from repro.telemetry.registry import MetricsRegistry
from repro.util.atomicio import atomic_write_json, atomic_write_text

__all__ = [
    "registry_snapshot",
    "prometheus_text",
    "write_telemetry",
    "METRICS_FILE",
    "REPORT_FILE",
    "TRACES_FILE",
    "SERIES_FILE",
]

METRICS_FILE = "metrics.prom"
REPORT_FILE = "report.json"
TRACES_FILE = "traces.jsonl"
SERIES_FILE = "series.jsonl"


def _prom_name(name: str) -> str:
    """Dotted metric name -> Prometheus-legal identifier."""
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _fmt(value: float) -> str:
    """Render a sample value; integers without a trailing ``.0``."""
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def registry_snapshot(registry: MetricsRegistry) -> dict:
    """Plain-dict snapshot of every instrument (JSON-serializable)."""
    return {
        "counters": {n: c.value for n, c in registry.counters().items()},
        "gauges": {n: g.value for n, g in registry.gauges().items()},
        "histograms": {
            n: {
                "buckets": list(h.buckets),
                "counts": list(h.counts),
                "sum": h.sum,
                "count": h.count,
            }
            for n, h in registry.histograms().items()
        },
    }


def _prom_labels(labels: dict, extra: "tuple[tuple[str, str], ...]" = ()) -> str:
    """Render a label set (sorted keys; ``extra`` pairs appended last)."""
    pairs = [(_prom_name(k), str(labels[k])) for k in sorted(labels)]
    pairs.extend(extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def prometheus_text(registry: MetricsRegistry, prefix: str = "select_repro") -> str:
    """Prometheus text exposition format (v0.0.4) for the registry.

    Labeled series of one metric family share one ``# HELP``/``# TYPE``
    header (emitted at the family's first series); iteration follows the
    registry's sorted composite keys, so an unlabeled series sorts just
    before its labeled siblings and the exposition is byte-stable.
    """
    lines: list[str] = []
    seen: set[str] = set()

    def header(metric: str, help_text: str, type_name: str) -> None:
        if metric in seen:
            return
        seen.add(metric)
        if help_text:
            lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} {type_name}")

    for counter in registry.counters().values():
        metric = f"{prefix}_{_prom_name(counter.name)}"
        header(metric, counter.help, "counter")
        lines.append(f"{metric} {_fmt(counter.value)}")
    for gauge in registry.gauges().values():
        metric = f"{prefix}_{_prom_name(gauge.name)}"
        header(metric, gauge.help, "gauge")
        lines.append(f"{metric}{_prom_labels(gauge.labels)} {_fmt(gauge.value)}")
    for hist in registry.histograms().values():
        metric = f"{prefix}_{_prom_name(hist.name)}"
        header(metric, hist.help, "histogram")
        for edge, cum in zip(hist.buckets, hist.cumulative()):
            labels = _prom_labels(hist.labels, extra=(("le", _fmt(edge)),))
            lines.append(f"{metric}_bucket{labels} {cum}")
        labels = _prom_labels(hist.labels, extra=(("le", "+Inf"),))
        lines.append(f"{metric}_bucket{labels} {hist.count}")
        lines.append(f"{metric}_sum{_prom_labels(hist.labels)} {_fmt(hist.sum)}")
        lines.append(f"{metric}_count{_prom_labels(hist.labels)} {hist.count}")
    return "\n".join(lines) + "\n"


def _trace_summary(tracer) -> dict:
    """Aggregate view of the spans for the JSON report."""
    from repro.telemetry import livetrace

    spans = tracer.spans()
    publishes = [s for s in spans if s.get("type") == "publish"]
    lookups = [s for s in spans if s.get("type") == "lookup"]
    hops = []
    link_kinds: dict[str, int] = {}
    for span in publishes:
        for route in span.get("routes", ()):
            if route.get("delivered"):
                hops.append(route.get("hops", 0))
            for hop in route.get("hops_detail", ()):
                kind = hop.get("link", "other")
                link_kinds[kind] = link_kinds.get(kind, 0) + 1
    summary = {
        "spans": len(spans),
        "publishes": len(publishes),
        "lookups": len(lookups),
        "dropped_spans": tracer.dropped_spans,
        "mean_hops": (sum(hops) / len(hops)) if hops else 0.0,
        "link_kinds": dict(sorted(link_kinds.items())),
    }
    live = livetrace.live_spans(spans)
    if live:
        chains = livetrace.summarize(live)
        summary["live"] = {
            key: chains[key]
            for key in (
                "schema",
                "traces",
                "complete_chains",
                "complete_chain_ratio",
                "orphan_spans",
                "chain_errors",
                "terminals",
            )
        }
        summary["live"]["spans"] = len(live)
    return summary


def write_telemetry(
    out_dir: str,
    registry: MetricsRegistry,
    tracer=None,
    recorder=None,
    meta: "dict | None" = None,
    provenance: "dict | None" = None,
) -> dict:
    """Write the full telemetry directory; returns ``{kind: path}``.

    ``tracer`` is an optional :class:`~repro.telemetry.tracer.RouteTracer`
    and ``recorder`` an optional :class:`~repro.sim.trace.TraceRecorder`;
    their files are only written when present. ``provenance`` fills the
    report's cross-reference block — root seed, configuration hash, and
    the id of the snapshot the run resumed from (if any); unknown fields
    stay ``null`` so the block is always present and schema-checkable.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    if tracer is not None:
        # Surface the keep-oldest retention loss where dashboards look:
        # a nonzero value means the tail of the run is *not* in
        # traces.jsonl (the oldest spans are kept; later ones counted
        # and dropped), so chain ratios must be read with that caveat.
        registry.gauge(
            "tracer.dropped_spans",
            "spans dropped by the tracer's keep-oldest retention limit",
        ).set(tracer.dropped_spans)

    paths["metrics"] = atomic_write_text(
        os.path.join(out_dir, METRICS_FILE), prometheus_text(registry)
    )

    prov = {"root_seed": None, "config_hash": None, "snapshot_id": None}
    prov.update(provenance or {})
    report = {
        "schema": "select-repro/telemetry/v1",
        "meta": dict(meta or {}),
        "provenance": prov,
        "metrics": registry_snapshot(registry),
    }
    if tracer is not None:
        paths["traces"] = tracer.export(os.path.join(out_dir, TRACES_FILE))
        report["traces"] = _trace_summary(tracer)
    if recorder is not None:
        paths["series"] = recorder.export(os.path.join(out_dir, SERIES_FILE))
        report["series"] = {"names": recorder.names()}

    paths["report"] = atomic_write_json(
        os.path.join(out_dir, REPORT_FILE),
        report,
        indent=2,
        sort_keys=True,
        default=float,
    )
    return paths
