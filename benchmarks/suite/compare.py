"""Compare two suite result files: ``compare.py OLD NEW``.

One row per (workload, metric): OLD median (the base of the ratio), NEW
median, the change signed so that positive is worse, the wider side's
interquartile spread, and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse`` / ``better``: the median moved by more than the bound;
* ``same``: it did not;
* ``unresolved``: a side's spread exceeds the bound, so the runs cannot
  tell, unless every NEW run beats every OLD run (``better``).

The per-layer metrics have no bound: the traced run's, and the stopwatch
timings, which an untraced file carries in each run's ``detail`` line. They
read ``worse`` / ``better`` only when the two sides do not overlap (every
NEW run on one side of every OLD run), which a 1.5 x slower build does even
in this box's noisy hours, and ``-`` otherwise. A ``failed_share`` row per
workload follows, and a note when the ``state_digest`` differs: the two
sides did not time the same work.

Given an untraced and a traced file of one commit, in either order, the
table is the tracing overhead per end-to-end metric and timing instead.

Exits 1 on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from harness import load_spec


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cells(report: dict, untraced_names: bool = False) -> dict:
    """``{(workload, metric): [values]}`` over a file's runs.

    The result line's metrics, and on an untraced file the stopwatch
    timings of the ``detail`` line; with ``untraced_names``, the same names
    off a traced file, whose ``detail`` line carries them.
    """
    out = defaultdict(list)
    for run in report["runs"]:
        metrics = dict(run["metrics"])
        if untraced_names and report["traced"]:
            metrics = dict(run["detail"]["end_to_end"])
        if untraced_names or not report["traced"]:
            metrics.update(run["detail"]["timings"])
        for name, value in metrics.items():
            out[run["workload"], name].append(value)
    return out


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    if q1 == q3:  # also a per-layer metric that reads 0 on this workload
        return 0.0
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else float("inf")


def change_of(old, new, better: str) -> float:
    """Move of the median relative to OLD's, signed so that positive is worse."""
    base, now = statistics.median(old), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    return sign * (now - base) / abs(base) if base else 0.0


def verdict(old, new, better: str, bound: "float | None") -> str:
    sign = 1.0 if better == "lower" else -1.0
    wins = all(sign * (n - o) < 0 for n in new for o in old)
    if bound is None:
        losses = all(sign * (n - o) > 0 for n in new for o in old)
        return "better" if wins else "worse" if losses else "-"
    if max(spread(old), spread(new)) > bound:
        return "better" if wins else "unresolved"
    change = change_of(old, new, better)
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def compare(old: dict, new: dict, spec: dict) -> "tuple[list[str], bool]":
    """The comparison table's lines, and whether any row reads ``worse``."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old_cells, new_cells = cells(old), cells(new)
    lines = [f"{'workload':<18}{'metric':<34}{'OLD':>14}{'NEW':>14}{'change':>9}{'spread':>8}  verdict"]
    any_worse = False
    for key in [k for k in old_cells if k in new_cells and k[1] in declared]:
        workload, name = key
        metric = declared[name]
        before, after = old_cells[key], new_cells[key]
        word = verdict(before, after, metric["better"], metric.get("bound"))
        any_worse |= word == "worse"
        lines.append(
            f"{workload:<18}{name:<34}{statistics.median(before):>14.6g}"
            f"{statistics.median(after):>14.6g}{change_of(before, after, metric['better']):>+9.1%}"
            f"{max(spread(before), spread(after)):>8.1%}  {word}"
        )
    for workload in sorted({r["workload"] for r in old["runs"]} & {r["workload"] for r in new["runs"]}):
        shares, digests = [], []
        for report in (old, new):
            runs = [r for r in report["runs"] if r["workload"] == workload]
            shares.append(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs))
            digests.append({r["detail"]["state_digest"] for r in runs})
        lines.append(f"{workload:<18}{'failed_share':<34}{shares[0]:>14.6g}{shares[1]:>14.6g}")
        if digests[0] != digests[1]:
            lines.append(f"{workload:<18}note: state_digest differs, the two sides did not time the same work")
    return lines, any_worse


def overhead(untraced: dict, traced: dict) -> "list[str]":
    """Tracing overhead per untraced metric (traced over untraced median)."""
    plain, spans = cells(untraced), cells(traced, untraced_names=True)
    lines = [f"{'workload':<18}{'metric':<34}{'untraced':>14}{'traced':>14}{'overhead':>10}"]
    for key in [k for k in plain if k in spans]:
        base, now = statistics.median(plain[key]), statistics.median(spans[key])
        lines.append(f"{key[0]:<18}{key[1]:<34}{base:>14.6g}{now:>14.6g}{(now - base) / abs(base):>+10.1%}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    if old["traced"] != new["traced"]:
        untraced, traced = (new, old) if old["traced"] else (old, new)
        print("\n".join(overhead(untraced, traced)))
        return 0
    lines, any_worse = compare(old, new, load_spec())
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
