"""Per-round trace recording.

Overlay construction and churn experiments record scalar series (IDs moved,
links changed, availability, live peers) per round; the experiment harness
turns those series into the figures' rows. Recorders serialize to JSONL
(:meth:`TraceRecorder.export`) so a run's series land next to the metrics
and route traces in a telemetry directory, and :meth:`TraceRecorder.merge`
combines the recorders of independent trials into one.
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np

from repro.util.atomicio import atomic_write_lines, read_jsonl

__all__ = ["TraceRecorder"]


class TraceRecorder:
    """Append-only store of named scalar series indexed by round."""

    def __init__(self):
        self._series: dict[str, list[tuple[int, float]]] = defaultdict(list)

    def record(self, name: str, round_index: int, value: float) -> None:
        """Append ``value`` for series ``name`` at ``round_index``."""
        self._series[name].append((int(round_index), float(value)))

    def series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(rounds, values)`` arrays for series ``name``."""
        points = self._series.get(name, [])
        if not points:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        rounds, values = zip(*points)
        return np.asarray(rounds, dtype=np.int64), np.asarray(values, dtype=np.float64)

    def last(self, name: str, default: float = float("nan")) -> float:
        """Most recent value of series ``name``."""
        points = self._series.get(name)
        return points[-1][1] if points else default

    def names(self) -> list[str]:
        """Recorded series names, sorted."""
        return sorted(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    # -- serialization / combination ----------------------------------------

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

    @classmethod
    def load(cls, path: str) -> "TraceRecorder":
        """Rebuild a recorder from an :meth:`export`-ed JSONL file."""
        recorder = cls()
        for _, row in read_jsonl(path):
            recorder.record(row["series"], row["round"], row["value"])
        return recorder

    def merge(self, other: "TraceRecorder") -> "TraceRecorder":
        """Fold ``other``'s points into this recorder (returns ``self``).

        Combines per-trial recorders: points of shared series are
        concatenated and re-sorted by round (stable, so same-round points
        keep their relative order and :meth:`last` favours the later
        contribution).
        """
        for name, points in other._series.items():
            mine = self._series[name]
            mine.extend(points)
            mine.sort(key=lambda p: p[0])
        return self
