"""Render a telemetry directory back into a human-readable run report.

``select-repro report DIR`` calls :func:`render_report` on a directory
written by :func:`repro.telemetry.export.write_telemetry`: per-phase
timings (every ``*.seconds`` histogram), counters and gauges grouped by
subsystem prefix, hop histograms, and one line of causal-chain counts.
``select-repro trace DIR`` calls :func:`render_trace_tree`, which draws
the chains themselves — a simulator run's or a live run's — as trees.
"""

from __future__ import annotations

import json
import os

from repro.telemetry.export import REPORT_FILE, TRACES_FILE
from repro.telemetry.tracer import SPAN_TYPE, assemble, chain_errors, is_complete, summarize
from repro.util.atomicio import read_jsonl
from repro.util.exceptions import ConfigurationError
from repro.util.tables import format_table

__all__ = ["load_report", "render_report", "render_trace_tree"]


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


#: causal trees printed in full before the trace verb summarizes.
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
        parts.append(
            " ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(attrs.items())
            )
        )
    return "  ".join(parts)


def _render_tree(
    trace_id: str, spans: "list[dict]", errors: "list[str]", lines: "list[str]"
) -> None:
    """Causal tree of one trace (``errors`` its chain errors): children
    indented under parents."""
    spans = sorted(spans, key=lambda s: (float(s.get("t0", 0.0)), int(s.get("span", 0))))
    children: "dict[object, list[dict]]" = {}
    ids = {s.get("span") for s in spans}
    for span in spans:
        parent = span.get("parent")
        key = parent if parent in ids else None
        children.setdefault(key, []).append(span)
    terminal = next((s for s in spans if s.get("terminal")), None)
    verdict = str(terminal.get("name")) if terminal is not None else "unresolved"
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
    """Causal tree/timeline view of the traces in a telemetry dir.

    Renders each chain — a simulator publish or lookup, or a live
    notification — as an indented tree (children under the span that
    caused them, rows stamped with the span clock). With ``trace_id``
    only that chain is shown, in full; otherwise incomplete chains are
    listed first — the ones a post-mortem cares about — then complete
    ones up to ``limit``.
    """
    path = os.path.join(telemetry_dir, TRACES_FILE)
    if not os.path.isfile(path):
        raise ConfigurationError(
            f"no {TRACES_FILE} in {telemetry_dir!r}; run with --telemetry "
            "(and, for 'live', --trace) first"
        )
    spans = [span for _, span in read_jsonl(path)]
    traces = assemble(spans)
    if not traces:
        return f"{TRACES_FILE} has no spans (type={SPAN_TYPE!r})"
    lines: "list[str]" = []
    if trace_id is not None:
        if trace_id not in traces:
            raise ConfigurationError(
                f"trace {trace_id!r} not found; {len(traces)} traces in {TRACES_FILE}"
            )
        trace = traces[trace_id]
        _render_tree(trace_id, trace, chain_errors(trace_id, trace), lines)
        return "\n".join(lines)
    errors = {tid: chain_errors(tid, trace) for tid, trace in traces.items()}
    summary = summarize(spans, errors)
    lines.append(f"Causal traces: {_chain_line(summary)}")
    incomplete = [t for t in traces if not is_complete(traces[t], errors[t])]
    skip = set(incomplete)
    shown = (incomplete + [t for t in traces if t not in skip])[: max(0, int(limit))]
    for tid in shown:
        lines.append("")
        _render_tree(tid, traces[tid], errors[tid], lines)
    rest = len(traces) - len(shown)
    if rest > 0:
        lines.append("")
        lines.append(f"... {rest} more chains in {TRACES_FILE}")
    return "\n".join(lines)


def _chain_line(summary: dict) -> str:
    """One line of chain counts from a :func:`summarize` dict or a report's block."""
    return (
        f"{summary['traces']} chains, {summary['complete_chains']} complete "
        f"({summary['complete_chain_ratio']:.1%}), "
        f"{summary['orphan_spans']} orphan spans, "
        f"{summary['chain_errors']} chain errors, terminals "
        + (", ".join(f"{k}={v}" for k, v in summary["terminals"].items()) or "n/a")
    )


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
            f"Trace summary: {_chain_line(traces)}; "
            f"mean delivered hops {traces['mean_hops']:.3f}, link mix "
            + (", ".join(f"{k}={v}" for k, v in traces["link_kinds"].items()) or "n/a")
            + f"  (drill down: select-repro trace {telemetry_dir})"
        )
    return "\n".join(lines)
