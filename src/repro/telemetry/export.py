"""Telemetry exporters: Prometheus text format and JSON run reports.

A telemetry directory written by :func:`write_telemetry` contains:

* ``metrics.prom``  — Prometheus text exposition of every instrument;
* ``report.json``   — structured run report: metadata, counters, gauges,
  histograms (edges + per-bucket counts + sum/count), and the causal
  chains' summary (when a tracer ran);
* ``traces.jsonl``  — every span, one ``select-repro/live-trace/v1``
  object per line: the simulator's publish and lookup chains or a live
  run's (when a tracer ran);
* ``series.jsonl``  — per-round scalar series (when a recorder ran).

``select-repro report DIR`` renders these files back into text and
``select-repro trace DIR`` draws the chains as causal trees
(:mod:`repro.telemetry.report`); ``select-repro validate DIR``
schema-checks them in CI (:mod:`repro.validate`).
"""

from __future__ import annotations

import os
from collections import Counter

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracer import summarize
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
    """The report's ``traces`` block: :func:`summarize`'s chain counts, the
    mean hops of delivered chains and the link mix of every decided hop."""
    spans = tracer.spans()
    summary = summarize(spans)
    hops = summary.pop("hops")
    del summary["latency_ms"]
    links = Counter(s["attrs"]["link"] for s in spans if "link" in s.get("attrs", ()))
    summary["spans"] = len(spans)
    summary["mean_hops"] = (sum(hops) / len(hops)) if hops else 0.0
    summary["link_kinds"] = dict(sorted(links.items()))
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

    ``tracer`` is an optional :class:`~repro.telemetry.tracer.Tracer`
    and ``recorder`` an optional :class:`~repro.sim.trace.TraceRecorder`;
    their files are only written when present. ``provenance`` fills the
    report's cross-reference block — root seed, configuration hash, and
    the id of the snapshot the run resumed from (if any); unknown fields
    stay ``null`` so the block is always present and schema-checkable.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

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
