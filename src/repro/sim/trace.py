"""Per-round trace recording.

Overlay construction and churn experiments record scalar series (IDs moved,
links changed, availability, live peers) per round. Recorders serialize to
JSONL (:meth:`TraceRecorder.export`) so a run's series land next to the
metrics and causal traces in a telemetry directory; a snapshot carries them
as :meth:`TraceRecorder.to_rows`.
"""

from __future__ import annotations

import json
from collections import defaultdict

from repro.util.atomicio import atomic_write_lines

__all__ = ["TraceRecorder"]


class TraceRecorder:
    """Append-only store of named scalar series indexed by round."""

    def __init__(self):
        self._series: dict[str, list[tuple[int, float]]] = defaultdict(list)

    def record(self, name: str, round_index: int, value: float) -> None:
        """Append ``value`` for series ``name`` at ``round_index``."""
        self._series[name].append((int(round_index), float(value)))

    def names(self) -> list[str]:
        """Recorded series names, sorted."""
        return sorted(self._series)

    # -- serialization ----------------------------------------------------------

    def to_rows(self) -> list[dict]:
        """Every recorded point as ``{"series", "round", "value"}`` dicts.

        Rows are ordered by series name, then recording order, so the
        output is deterministic for a deterministic run.
        """
        rows = []
        for name in self.names():
            for round_index, value in self._series[name]:
                rows.append({"series": name, "round": round_index, "value": value})
        return rows

    def export(self, path: str) -> str:
        """Write the rows as JSONL (one point per line); returns ``path``.

        Atomic replace: a crash mid-export leaves the previous file (or
        none), never a truncated one.
        """
        return atomic_write_lines(
            path,
            (json.dumps(row, separators=(",", ":")) for row in self.to_rows()),
        )
