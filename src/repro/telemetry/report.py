"""Render a telemetry directory back into a human-readable run report.

``select-repro report DIR`` calls :func:`render_report` on a directory
written by :func:`repro.telemetry.export.write_telemetry`: per-phase
timings (every ``*.seconds`` histogram), counters and gauges grouped by
subsystem prefix, hop histograms, and a sample of per-message route
traces with their hop-by-hop decisions.
"""

from __future__ import annotations

import json
import os

from repro.telemetry import livetrace
from repro.telemetry.export import REPORT_FILE, TRACES_FILE
from repro.util.atomicio import read_jsonl
from repro.util.exceptions import ConfigurationError
from repro.util.tables import format_table

__all__ = ["load_report", "render_report", "render_trace_tree"]

#: per-message traces printed in full before the renderer summarizes.
MAX_TRACED_MESSAGES = 8


def load_report(telemetry_dir: str) -> dict:
    """Parse ``report.json`` from a telemetry directory."""
    path = os.path.join(telemetry_dir, REPORT_FILE)
    if not os.path.isfile(path):
        raise ConfigurationError(f"no {REPORT_FILE} in {telemetry_dir!r}; run with --telemetry first")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _phase_rows(histograms: dict) -> list[tuple]:
    rows = []
    for name, h in sorted(histograms.items()):
        if not name.endswith(".seconds") or not h["count"]:
            continue
        phase = name[: -len(".seconds")]
        mean = h["sum"] / h["count"]
        rows.append((phase, h["count"], f"{h['sum']:.3f}", f"{mean * 1000:.2f}"))
    return rows


def _scalar_rows(values: dict) -> list[tuple]:
    return [(name, f"{v:.6g}") for name, v in sorted(values.items()) if v]


def _hop_chain(route: dict) -> str:
    """``5 -long-> 9 -short-> 7`` from a route's hop decisions."""
    detail = route.get("hops_detail") or []
    if not detail:
        path = route.get("path", [])
        return " -> ".join(str(v) for v in path) if path else "(no path)"
    parts = [str(detail[0]["from"])]
    for hop in detail:
        parts.append(f"-{hop.get('link', '?')}-> {hop['to']}")
    return " ".join(parts)


def _render_traces(telemetry_dir: str, lines: list[str]) -> None:
    path = os.path.join(telemetry_dir, TRACES_FILE)
    if not os.path.isfile(path):
        return
    spans = [span for _, span in read_jsonl(path)]
    publishes = [s for s in spans if s.get("type") == "publish"]
    lines.append("")
    lines.append(f"Per-message route traces ({len(publishes)} publish spans recorded):")
    for span in publishes[:MAX_TRACED_MESSAGES]:
        status = (
            f"{span.get('delivered', 0)}/{len(span.get('subscribers', []))} delivered"
        )
        extras = []
        if span.get("retries"):
            extras.append(f"{span['retries']} retries")
        if span.get("dropped"):
            extras.append(f"{span['dropped']} dropped")
        if span.get("buffered"):
            extras.append(f"{span['buffered']} buffered for catch-up")
        suffix = f" ({', '.join(extras)})" if extras else ""
        lines.append(
            f"  msg {span['msg']} t={span.get('time', 0.0):g} "
            f"publisher {span['publisher']}: {status}{suffix}"
        )
        for route in span.get("routes", ()):
            mark = "ok " if route.get("delivered") else "DROP"
            note = ""
            fault = route.get("fault")
            if fault:
                why = "partition" if fault.get("partition") else "loss"
                note = f"  [lost at hop {fault.get('lost_at')}: {why}]"
            lines.append(
                f"    {mark} -> {route['subscriber']:>5}  "
                f"{_hop_chain(route)}{note}"
            )
    if len(publishes) > MAX_TRACED_MESSAGES:
        lines.append(f"  ... {len(publishes) - MAX_TRACED_MESSAGES} more in {TRACES_FILE}")


#: live causal trees printed in full before the trace verb summarizes.
MAX_TRACE_TREES = 10


def _span_line(span: dict, depth: int) -> str:
    """One span as an indented timeline row."""
    name = str(span.get("name"))
    if span.get("terminal"):
        name += "*"
    parts = [f"{'  ' * depth}[{float(span.get('t0', 0.0)):9.4f}s] {name:<12}"]
    parts.append(f"node {span.get('node')}")
    if span.get("hop") is not None:
        parts.append(f"hop {span['hop']}")
    if span.get("status") is not None:
        parts.append(f"({span['status']})")
    attrs = span.get("attrs") or {}
    if attrs:
        parts.append(" ".join(f"{k}={v}" for k, v in sorted(attrs.items())))
    return "  ".join(parts)


def _render_tree(trace_id: str, spans: "list[dict]", lines: "list[str]") -> None:
    """Causal tree of one live trace: children indented under parents."""
    spans = sorted(spans, key=lambda s: (float(s.get("t0", 0.0)), int(s.get("span", 0))))
    children: "dict[object, list[dict]]" = {}
    ids = {s.get("span") for s in spans}
    for span in spans:
        parent = span.get("parent")
        key = parent if parent in ids else None
        children.setdefault(key, []).append(span)
    terminal = next((s for s in spans if s.get("terminal")), None)
    verdict = str(terminal.get("name")) if terminal is not None else "unresolved"
    errors = livetrace.chain_errors(trace_id, spans)
    mark = "" if not errors else f"  [{len(errors)} chain error(s)]"
    lines.append(f"trace {trace_id}  ({len(spans)} spans, terminal: {verdict}){mark}")

    emitted: "set[object]" = set()

    def walk(parent_key, depth: int) -> None:
        for span in children.get(parent_key, ()):  # insertion = time order
            sid = span.get("span")
            if sid in emitted:
                continue
            emitted.add(sid)
            lines.append(_span_line(span, depth))
            walk(sid, depth + 1)

    walk(None, 1)
    for err in errors:
        lines.append(f"  ! {err}")


def render_trace_tree(
    telemetry_dir: str,
    trace_id: "str | None" = None,
    limit: int = MAX_TRACE_TREES,
) -> str:
    """Causal tree/timeline view of the live traces in a telemetry dir.

    Renders each chain as an indented tree (children under the span that
    caused them, rows stamped with the shared elapsed clock). With
    ``trace_id`` only that chain is shown, in full; otherwise incomplete
    chains are listed first — the ones a post-mortem cares about — then
    complete ones up to ``limit``.
    """
    path = os.path.join(telemetry_dir, TRACES_FILE)
    if not os.path.isfile(path):
        raise ConfigurationError(
            f"no {TRACES_FILE} in {telemetry_dir!r}; run with --telemetry and --trace first"
        )
    spans = livetrace.live_spans([span for _, span in read_jsonl(path)])
    traces = livetrace.assemble(spans)
    if not traces:
        return f"{TRACES_FILE} has no live spans (type={livetrace.LIVE_SPAN_TYPE!r})"
    lines: "list[str]" = []
    if trace_id is not None:
        if trace_id not in traces:
            raise ConfigurationError(
                f"trace {trace_id!r} not found; {len(traces)} live traces in {TRACES_FILE}"
            )
        _render_tree(trace_id, traces[trace_id], lines)
        return "\n".join(lines)
    summary = livetrace.summarize(spans)
    lines.append(
        f"Live causal traces: {summary['traces']} chains, "
        f"{summary['complete_chains']} complete "
        f"({summary['complete_chain_ratio']:.1%}), "
        f"{summary['orphan_spans']} orphan spans, terminals "
        + ", ".join(f"{k}={v}" for k, v in summary["terminals"].items())
    )
    incomplete = [t for t in traces if not livetrace.is_complete(t, traces[t])]
    complete = [t for t in traces if t not in set(incomplete)]
    shown = (incomplete + complete)[: max(0, int(limit))]
    for tid in shown:
        lines.append("")
        _render_tree(tid, traces[tid], lines)
    rest = len(traces) - len(shown)
    if rest > 0:
        lines.append("")
        lines.append(f"... {rest} more chains in {TRACES_FILE}")
    return "\n".join(lines)


def render_report(telemetry_dir: str) -> str:
    """Text run report for one telemetry directory."""
    report = load_report(telemetry_dir)
    metrics = report.get("metrics", {})
    lines: list[str] = []

    meta = report.get("meta", {})
    title = "Telemetry run report"
    if meta:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        title += f" ({detail})"
    lines.append(title)
    lines.append("=" * len(title))

    provenance = report.get("provenance") or {}
    known = {k: v for k, v in sorted(provenance.items()) if v is not None}
    if known:
        lines.append(
            "Provenance: " + ", ".join(f"{k}={v}" for k, v in known.items())
        )

    phase_rows = _phase_rows(metrics.get("histograms", {}))
    if phase_rows:
        lines.append("")
        lines.append(
            format_table(
                headers=["Phase", "Calls", "Total s", "Mean ms"],
                rows=phase_rows,
                title="Per-phase timings",
            )
        )

    counter_rows = _scalar_rows(metrics.get("counters", {}))
    if counter_rows:
        lines.append("")
        lines.append(
            format_table(headers=["Counter", "Value"], rows=counter_rows, title="Counters")
        )

    gauge_rows = _scalar_rows(metrics.get("gauges", {}))
    if gauge_rows:
        lines.append("")
        lines.append(
            format_table(headers=["Gauge", "Value"], rows=gauge_rows, title="Gauges")
        )

    hop_hists = {
        n: h
        for n, h in metrics.get("histograms", {}).items()
        if not n.endswith(".seconds") and h["count"]
    }
    if hop_hists:
        lines.append("")
        rows = []
        for name, h in sorted(hop_hists.items()):
            edges = h["buckets"]
            cells = [f"<={edges[i]:g}:{c}" for i, c in enumerate(h["counts"][:-1]) if c]
            if h["counts"][-1]:
                cells.append(f">{edges[-1]:g}:{h['counts'][-1]}")
            rows.append((name, h["count"], f"{h['sum'] / h['count']:.3f}", " ".join(cells)))
        lines.append(
            format_table(
                headers=["Histogram", "N", "Mean", "Buckets"],
                rows=rows,
                title="Distributions",
            )
        )

    traces = report.get("traces")
    if traces:
        lines.append("")
        lines.append(
            "Trace summary: "
            f"{traces['publishes']} publishes, {traces['lookups']} lookups, "
            f"mean hops {traces['mean_hops']:.3f}, link mix "
            + (
                ", ".join(f"{k}={v}" for k, v in traces.get("link_kinds", {}).items())
                or "n/a"
            )
        )
        live = traces.get("live")
        if live:
            lines.append(
                "Live causal chains: "
                f"{live['traces']} traces, {live['complete_chains']} complete "
                f"({live['complete_chain_ratio']:.1%}), "
                f"{live['orphan_spans']} orphan spans, terminals "
                + (
                    ", ".join(f"{k}={v}" for k, v in live.get("terminals", {}).items())
                    or "n/a"
                )
                + f"  (drill down: select-repro trace {telemetry_dir})"
            )
    _render_traces(telemetry_dir, lines)
    return "\n".join(lines)
