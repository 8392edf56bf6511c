"""Export experiment rows to CSV for plotting.

Every experiment's ``run()`` returns a list of flat-ish dicts; this
helper serializes them so the figures can be re-plotted with any tool
(the paper's figures are line/bar charts over exactly these series).
List-valued fields (histograms, per-bin series) are JSON-encoded inside
the CSV cell so nothing is lost.
"""

from __future__ import annotations

import csv
import json
import os

from repro.util.exceptions import ConfigurationError

__all__ = ["rows_to_csv"]


def _flatten(value):
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value)
    return value


def rows_to_csv(rows: list[dict], path: str) -> str:
    """Write experiment rows to ``path`` as CSV; returns the path."""
    if not rows:
        raise ConfigurationError("no rows to export")
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _flatten(v) for k, v in row.items()})
    return path

