"""Causal spans for both runtimes: the ``select-repro/live-trace/v1`` model.

One :class:`Tracer` turns protocol moments into spans, keeps every span it
made, and writes them as JSONL (one JSON object per line). The simulator
(:class:`~repro.pubsub.api.PubSubSystem`) and the live runtime
(:mod:`repro.live`) emit the same shape: one *trace* per intended
``(message, subscriber)`` pair or per lookup, and a span is a JSON object
with ``"type": "live"`` (the tag predates the simulator's use) and:

* ``trace_id``  — ``"<msg>:<subscriber>"``, the causal chain key;
* ``span``      — tracer-unique integer span id;
* ``parent``    — parent span id within the same trace, ``null`` for the
  root (exactly one root per trace: the ``publish`` or ``lookup`` span);
* ``name``      — span kind: ``publish`` / ``lookup`` (root), ``send`` (one
  request attempt at the live publisher), ``relay`` (a hop at an
  intermediate node; a simulator relay's ``attrs`` carry the router's
  decision — ``link``, ``rule`` and ``distance``), ``drop`` (the link or a
  partition killed the message; ``status`` names the cause), ``shed``
  (retry budget spent, degraded to catch-up), ``duplicate`` (redundant
  at-least-once delivery, deduplicated), and the terminals below;
* ``node``      — the node the event happened at;
* ``hop``       — hop index along the route (absent on the root);
* ``t0`` / ``t1`` — start / end: the live cluster's shared elapsed clock
  (never wall-clock), or the simulated publish time, where every span is
  instantaneous;
* ``terminal``  — exactly one span per trace carries ``true``; its name
  must be one of :data:`TERMINAL_NAMES`.

A chain is **complete** when it has one root, one terminal whose name is
in :data:`COMPLETE_TERMINALS` (``pending`` — parked in a catch-up store —
and ``lost`` — missed with no store to park it in — close a chain but
leave the pair unresolved), and zero *orphans* (spans whose parent id is
absent from the trace). :func:`chain_errors` is the validator's per-trace
check; :func:`summarize` is the aggregate view the run report, the live
cluster and its SLO evaluation share.

The tracer is process-wide but explicitly injectable: the simulator takes
``tracer=None`` and falls back to :func:`get_tracer` (``None`` by default —
a span costs real memory per message, so there is no null object on the
hot path; every emission site guards with ``if tracer is not None``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass

from repro.util.atomicio import atomic_write_lines

__all__ = [
    "TRACE_SCHEMA",
    "SPAN_TYPE",
    "TERMINAL_NAMES",
    "COMPLETE_TERMINALS",
    "TraceContext",
    "Tracer",
    "assemble",
    "chain_errors",
    "is_complete",
    "summarize",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]

TRACE_SCHEMA = "select-repro/live-trace/v1"

#: the ``type`` tag every span carries.
SPAN_TYPE = "live"

#: span names allowed to close a chain (``terminal: true``).
TERMINAL_NAMES = ("delivered", "recovered", "dead_subscriber", "pending", "lost")

#: terminals that count as a *resolved* causal chain.
COMPLETE_TERMINALS = ("delivered", "recovered", "dead_subscriber")


@dataclass(frozen=True)
class TraceContext:
    """Causal coordinates one live request layer call carries downstream."""

    #: the causal chain key: ``"<notify_seq>:<subscriber>"``.
    trace_id: str
    #: span id the next emitted span must parent to.
    parent: int
    #: hop index of the *carrier* (0 at the publisher).
    hop: int = 0

    def wire(self, parent: "int | None" = None) -> dict:
        """JSON-safe context stamped onto an envelope."""
        return {
            "id": self.trace_id,
            "parent": self.parent if parent is None else int(parent),
            "hop": int(self.hop),
        }


class Tracer:
    """Span factory and store: every span it makes is kept and exported.

    Timestamps come from an injectable monotonic ``clock`` (elapsed
    seconds, never wall-clock; the live cluster passes its transport's
    clock), or from ``at=`` on :meth:`event` (the simulator's publish
    time). Exactly one terminal per trace is enforced here: a late second
    terminal (a catch-up recovery racing a live delivery) is downgraded to
    a non-terminal annotation with ``post_terminal: true``.
    """

    def __init__(self, clock=None):
        #: injectable monotonic clock (elapsed seconds, never wall-clock).
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._spans: "list[dict]" = []
        self._next_span = 0
        self._next_msg = 0
        #: span id -> span dict, for two-phase (start/finish) spans.
        self._open: "dict[int, dict]" = {}
        #: trace ids that already carry their one terminal span.
        self._terminated: "set[str]" = set()

    def next_message_id(self) -> int:
        """Fresh simulator message id, the ``<msg>`` of its trace ids."""
        msg = self._next_msg
        self._next_msg += 1
        return msg

    # -- span lifecycle --------------------------------------------------------

    def _new_span(
        self,
        trace_id: str,
        name: str,
        node: int,
        parent: "int | None",
        hop: "int | None",
        attrs: dict,
        at: "float | None" = None,
    ) -> dict:
        self._next_span += 1
        span = {
            "type": SPAN_TYPE,
            "trace_id": str(trace_id),
            "span": self._next_span,
            "parent": None if parent is None else int(parent),
            "name": str(name),
            "node": int(node),
            "t0": float(self.clock() if at is None else at),
            "t1": None,
            "terminal": False,
        }
        if hop is not None:
            span["hop"] = int(hop)
        if attrs:
            span["attrs"] = attrs
        return span

    def start(
        self,
        trace_id: str,
        name: str,
        node: int,
        parent: "int | None" = None,
        hop: "int | None" = None,
        **attrs,
    ) -> int:
        """Open a span that brackets an await; finish() records it."""
        span = self._new_span(trace_id, name, node, parent, hop, attrs)
        self._open[span["span"]] = span
        return span["span"]

    def finish(
        self,
        span_id: int,
        terminal: bool = False,
        status: "str | None" = None,
        **attrs,
    ) -> None:
        """Close an open span and record it."""
        span = self._open.pop(span_id, None)
        if span is None:
            return
        span["t1"] = float(self.clock())
        self._record(span, terminal=terminal, status=status, attrs=attrs)

    def event(
        self,
        trace_id: str,
        name: str,
        node: int,
        parent: "int | None" = None,
        hop: "int | None" = None,
        terminal: bool = False,
        status: "str | None" = None,
        at: "float | None" = None,
        **attrs,
    ) -> int:
        """Record one instantaneous span (``t0 == t1``); returns its id."""
        span = self._new_span(trace_id, name, node, parent, hop, attrs={}, at=at)
        span["t1"] = span["t0"]
        self._record(span, terminal=terminal, status=status, attrs=attrs)
        return span["span"]

    def _record(self, span: dict, terminal: bool, status: "str | None", attrs: dict) -> None:
        if status is not None:
            span["status"] = str(status)
        if attrs:
            span.setdefault("attrs", {}).update(attrs)
        if terminal:
            # One terminal per trace: a racing second resolution (live
            # delivery vs catch-up recovery) degrades to an annotation.
            if span["trace_id"] in self._terminated:
                terminal = False
                span.setdefault("attrs", {})["post_terminal"] = True
            else:
                self._terminated.add(span["trace_id"])
        span["terminal"] = bool(terminal)
        self._spans.append(span)

    def drop(self, envelope, cause: str) -> None:
        """Annotate a traced live envelope the transport killed, by cause."""
        ctx = envelope.trace
        if ctx is None:
            return
        self.event(
            ctx["id"],
            "drop",
            envelope.dst,
            parent=ctx.get("parent"),
            hop=ctx.get("hop"),
            status=str(cause),
            src=int(envelope.src),
        )

    def has_terminal(self, trace_id: str) -> bool:
        """Whether the trace's one terminal span was already recorded."""
        return str(trace_id) in self._terminated

    def flush_open(self) -> int:
        """Close every still-open span as ``status="unfinished"``.

        Called at the end of a live run so a request still awaiting its
        reply when the cluster shuts down cannot leave an orphan parent
        reference in the exported JSONL. Returns the number flushed.
        """
        leftover = list(self._open)
        for span_id in leftover:
            self.finish(span_id, status="unfinished")
        return len(leftover)

    # -- the store -------------------------------------------------------------

    def spans(self) -> "list[dict]":
        """Every recorded span, in recording order."""
        return list(self._spans)

    def export(self, path: str) -> str:
        """Write every span as one JSON object per line; returns ``path``.

        The file is replaced atomically so a crash mid-export cannot
        leave a truncated JSONL that a validator half-accepts.
        """
        return atomic_write_lines(
            path,
            (
                json.dumps(span, separators=(",", ":"), default=float)
                for span in self._spans
            ),
        )


# -- chains ------------------------------------------------------------------------


def assemble(spans) -> "dict[str, list[dict]]":
    """Group spans by ``trace_id`` (insertion order preserved)."""
    traces: "dict[str, list[dict]]" = {}
    for span in spans:
        if span.get("type") == SPAN_TYPE:
            traces.setdefault(str(span.get("trace_id")), []).append(span)
    return traces


def chain_errors(trace_id: str, spans: "list[dict]") -> "list[str]":
    """Causal-chain violations in one assembled trace (empty = sound).

    Checks the cross-span invariants the per-line schema cannot see:
    exactly one root, every parent resolvable inside the trace (no
    orphan spans), unique span ids, and exactly one terminal whose name
    is a known terminal kind.
    """
    errors: "list[str]" = []
    ids: "set[int]" = set()
    for span in spans:
        sid = span.get("span")
        if sid in ids:
            errors.append(f"trace {trace_id!r}: duplicate span id {sid}")
        ids.add(sid)
    roots = [s for s in spans if s.get("parent") is None]
    if len(roots) != 1:
        errors.append(
            f"trace {trace_id!r}: expected exactly one root span, got {len(roots)}"
        )
    orphans = [
        s for s in spans if s.get("parent") is not None and s.get("parent") not in ids
    ]
    for span in orphans:
        errors.append(
            f"trace {trace_id!r}: orphan span {span.get('span')} "
            f"({span.get('name')!r}) references missing parent {span.get('parent')}"
        )
    terminals = [s for s in spans if s.get("terminal")]
    if not terminals:
        errors.append(f"trace {trace_id!r}: no terminal span (chain never resolved)")
    elif len(terminals) > 1:
        names = ", ".join(str(s.get("name")) for s in terminals)
        errors.append(
            f"trace {trace_id!r}: {len(terminals)} terminal spans ({names}); "
            f"exactly one allowed"
        )
    for span in terminals:
        if span.get("name") not in TERMINAL_NAMES:
            errors.append(
                f"trace {trace_id!r}: unknown terminal kind {span.get('name')!r}; "
                f"allowed: {', '.join(TERMINAL_NAMES)}"
            )
    return errors


def _terminal(spans: "list[dict]") -> "dict | None":
    for span in spans:
        if span.get("terminal"):
            return span
    return None


def is_complete(spans: "list[dict]", errors: "list[str]") -> bool:
    """Sound chain (``errors`` is its :func:`chain_errors`) that resolves its pair."""
    terminal = _terminal(spans)
    return not errors and terminal is not None and terminal.get("name") in COMPLETE_TERMINALS


def summarize(spans, errors: "dict[str, list[str]] | None" = None) -> dict:
    """Aggregate chain statistics over a span stream.

    Returns trace counts, per-terminal-kind counts, the complete-chain
    ratio, total orphan spans, and the raw per-trace latency (ms, root
    ``t0`` to terminal ``t1``) and hop-count samples (delivered chains
    only) that feed histograms and SLO evaluation. ``errors`` (trace id
    -> :func:`chain_errors`) spares a caller that already checked every
    chain a second check.
    """
    traces = assemble(spans)
    if errors is None:
        errors = {tid: chain_errors(tid, trace) for tid, trace in traces.items()}
    terminals: "dict[str, int]" = {}
    complete = 0
    orphan_spans = 0
    chain_error_count = 0
    latencies_ms: "list[float]" = []
    hops: "list[int]" = []
    for trace_id, trace in traces.items():
        errs = errors[trace_id]
        chain_error_count += len(errs)
        orphan_spans += sum(1 for e in errs if "orphan span" in e)
        terminal = _terminal(trace)
        kind = str(terminal.get("name")) if terminal is not None else "none"
        terminals[kind] = terminals.get(kind, 0) + 1
        complete += is_complete(trace, errs)
        if terminal is not None and not errs:
            roots = [s for s in trace if s.get("parent") is None]
            if roots:
                t0 = roots[0].get("t0")
                t1 = terminal.get("t1")
                if t0 is not None and t1 is not None:
                    latencies_ms.append(max(0.0, (float(t1) - float(t0)) * 1000.0))
            if kind == "delivered" and terminal.get("hop") is not None:
                hops.append(int(terminal["hop"]))
    n = len(traces)
    return {
        "schema": TRACE_SCHEMA,
        "traces": n,
        "complete_chains": complete,
        "complete_chain_ratio": (complete / n) if n else 1.0,
        "orphan_spans": orphan_spans,
        "chain_errors": chain_error_count,
        "terminals": dict(sorted(terminals.items())),
        "latency_ms": latencies_ms,
        "hops": hops,
    }


# -- the process-wide tracer ---------------------------------------------------------

_current: "Tracer | None" = None


def get_tracer() -> "Tracer | None":
    """The process-wide current tracer (``None`` unless installed)."""
    return _current


def set_tracer(tracer: "Tracer | None") -> "Tracer | None":
    """Install ``tracer`` process-wide; returns the previous one."""
    global _current
    previous = _current
    _current = tracer
    return previous


@contextmanager
def use_tracer(tracer: "Tracer | None"):
    """Scoped :func:`set_tracer` that restores the previous tracer."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
