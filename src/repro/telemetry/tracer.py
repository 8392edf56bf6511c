"""Per-message route tracing.

A :class:`RouteTracer` collects one *span* per traced message — a plain
dict describing a publish or lookup end to end: who published, which
subscribers, and for every subscriber the per-hop routing decisions the
greedy router took (next node, ring distance, link type short/long/
successor, and the rule that chose it), plus fault annotations (where a
lossy hop killed the path, whether a partition blocked it, retry spend)
and catch-up buffering. Spans serialize as JSONL — one JSON object per
line — so multi-gigabyte traces stream without ever being held whole.

Like the metrics registry, the tracer is process-wide but explicitly
injectable: components take ``tracer=None`` and fall back to
:func:`get_tracer` (``None`` by default — tracing costs real memory per
message, so unlike metrics there is no null object on the hot path;
callers guard with ``if tracer is not None``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from repro.util.atomicio import atomic_write_lines

__all__ = ["RouteTracer", "get_tracer", "set_tracer", "use_tracer"]


class RouteTracer:
    """Append-only store of per-message spans with JSONL serialization.

    **Truncation policy (keep-oldest):** when ``limit`` is set and the
    store is full, new spans are *counted and discarded* — the retained
    prefix is the chronological head of the run, never a sliding window.
    This keeps early causal chains intact (a live trace missing its root
    is worthless) at the cost of losing the tail; the loss is visible as
    :attr:`dropped_spans`, exported to ``report.json`` and as the
    ``tracer.dropped_spans`` gauge in ``metrics.prom``, so a nonzero
    value flags that chain ratios cover only the retained prefix.
    """

    def __init__(self, limit: "int | None" = None):
        #: optional cap on retained spans (oldest kept; later spans are
        #: counted but dropped), for very long simulations.
        self.limit = limit
        self._spans: list[dict] = []
        self._next_id = 0
        #: spans dropped because of :attr:`limit`.
        self.dropped_spans = 0

    def next_message_id(self) -> int:
        """Fresh id tying one publish/lookup's span to its metrics."""
        mid = self._next_id
        self._next_id += 1
        return mid

    def record(self, span: dict) -> None:
        """Append one finished span (a JSON-serializable dict)."""
        if self.limit is not None and len(self._spans) >= self.limit:
            self.dropped_spans += 1
            return
        self._spans.append(span)

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self, kind: "str | None" = None) -> list[dict]:
        """Recorded spans, optionally filtered by ``span["type"]``."""
        if kind is None:
            return list(self._spans)
        return [s for s in self._spans if s.get("type") == kind]

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

    def clear(self) -> None:
        self._spans.clear()


_current: "RouteTracer | None" = None


def get_tracer() -> "RouteTracer | None":
    """The process-wide current tracer (``None`` unless installed)."""
    return _current


def set_tracer(tracer: "RouteTracer | None") -> "RouteTracer | None":
    """Install ``tracer`` process-wide; returns the previous one."""
    global _current
    previous = _current
    _current = tracer
    return previous


@contextmanager
def use_tracer(tracer: "RouteTracer | None"):
    """Scoped :func:`set_tracer` that restores the previous tracer."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
