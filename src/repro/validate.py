"""One validator for every artifact a verb writes (CI gate).

``select-repro validate PATH`` exits 1 (``SCHEMA ERROR:`` lines on stderr)
when ``PATH`` violates the contract of what it holds, 2 on a usage error, 0
otherwise. ``PATH`` is a ``verdict.json`` file or a directory holding any mix of

* a snapshot — ``manifest.json`` + ``state.json`` (``select-repro/snapshot/v2``);
* telemetry — ``report.json`` + ``metrics.prom``, optionally ``traces.jsonl``
  and ``series.jsonl`` (``select-repro/telemetry/v1``; every span, the
  simulator's or a live run's, is a ``select-repro/live-trace/v1`` span and
  the spans must assemble into sound causal chains);
* a scenario verdict — ``verdict.json`` (``select-repro/verdict/v1``).

Every artifact found is checked; a directory holding none is an error.

A format is a table, ``{key: type | nested table | [element shape]}``,
walked by :func:`_shape`, which checks presence and type *before* any
rule does arithmetic on a value — a parseable but mistyped document is
reported, never crashed on. A string in a table is a literal the value
must equal (the schema tags). Rules that relate two fields (digests,
lengths, margins, causal chains) are explicit code below the tables; no
external schema library, the container stays on the standard toolchain.
"""

from __future__ import annotations

import json
import os
import re
import sys

from repro.persist.snapshot import MANIFEST_FILE, SCHEMA, STATE_FILE, snapshot_id
from repro.persist.snapshot import decode_overlay, embedded_graph
from repro.scenarios.slo import VERDICT_FILE, VERDICT_SCHEMA
from repro.telemetry.export import METRICS_FILE, REPORT_FILE, SERIES_FILE, TRACES_FILE
from repro.telemetry.tracer import SPAN_TYPE, assemble, chain_errors
from repro.util.atomicio import read_jsonl
from repro.util.exceptions import PersistError, ReproError

__all__ = ["validate_snapshot", "validate_telemetry", "validate_verdict", "validate_path", "main"]

NUM = (int, float)
NONE = type(None)
_UNREAD = object()  # what _read returns for a file it has reported instead

# -- the formats ---------------------------------------------------------------

_MANIFEST = {
    "schema": SCHEMA, "snapshot_id": str, "round": int, "config": dict,
    "graph": {"name": str, "num_nodes": int, "num_edges": int, "fingerprint": str},
    "components": [str],
}
_CSR = {"indptr": [int], "values": list}
# The column lists are typed by ``snapshot.decode_overlay``, as restore reads them.
_OVERLAY = {
    "k_links": int, "config": dict, "built": bool, "iterations": int,
    "ids": [NUM], "pending_ids": [NUM],
    "peers": dict.fromkeys(
        ("moves_done", "stable_rounds", "link_change_budget", "top2", "anchor_pair", "anchor_target"),
        list,
    ),
    "edges": dict.fromkeys(
        ("mutual", "mutual_stamp", "bitmap", "bitmap_stamp", "bucket", "view"), list
    ),
    "views": _CSR,
    "tables": {"ring_pred": list, "ring_succ": list, "long_links": _CSR, "successors": _CSR},
    "incoming_sources": _CSR,
    "behavior": {**_CSR, "count": list, "mean": list},
}

_PROVENANCE = {
    "root_seed": (int, float, NONE), "config_hash": (str, NONE), "snapshot_id": (str, NONE),
}
_REPORT = {
    "schema": "select-repro/telemetry/v1",
    "provenance": _PROVENANCE,
    "metrics": {"counters": dict, "gauges": dict, "histograms": dict},
}
_HISTOGRAM = {"buckets": [NUM], "counts": [int], "sum": NUM, "count": int}
# Typed: chain assembly hashes the span and parent ids and groups by trace_id.
_SPAN = {
    "type": SPAN_TYPE, "trace_id": str, "span": int, "parent": (int, NONE), "name": str,
    "node": int, "t0": NUM, "t1": NUM,
}
_SERIES_ROW = {"series": str, "round": int, "value": NUM}
_PROM_LINE = re.compile(
    r"^(#\s(HELP|TYPE)\s[a-zA-Z_][a-zA-Z0-9_]*.*"
    r"|[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})?\s[-+0-9.eE]+(nan|inf)?"
    r"|)$"
)

_OBJECTIVE = {
    "name": str, "kind": str, "threshold": NUM, "observed": NUM, "margin": NUM, "passed": bool,
}
_VERDICT = {
    "schema": VERDICT_SCHEMA, "scenario": str, "seed": int, "num_nodes": int, "horizon": NUM,
    "passed": bool, "objectives": list, "observed": dict, "provenance": _PROVENANCE,
}

# -- the walker ------------------------------------------------------------------


def _shape(obj, shape, where: str, errors: "list[str]") -> bool:
    """Check ``obj`` against ``shape``, appending violations; True when it fits."""
    if isinstance(shape, str):
        if obj != shape:
            errors.append(f"{where} must be {shape!r}, got {obj!r}")
        return obj == shape
    if isinstance(shape, dict):
        if not isinstance(obj, dict):
            errors.append(f"{where} must be an object, got {type(obj).__name__}")
            return False
        missing = [key for key in shape if key not in obj]
        if missing:
            errors.append(f"{where} missing keys {missing}")
        fits = [
            _shape(obj[key], sub, f"{where}.{key}", errors)
            for key, sub in shape.items()
            if key in obj
        ]
        return not missing and all(fits)
    if isinstance(shape, list):
        if not isinstance(obj, list):
            errors.append(f"{where} must be a list, got {type(obj).__name__}")
            return False
        return all([_shape(x, shape[0], f"{where}[{i}]", errors) for i, x in enumerate(obj)])
    types = shape if isinstance(shape, tuple) else (shape,)
    # bool is an int to isinstance; a flag is not a number.
    if not isinstance(obj, types) or (isinstance(obj, bool) and bool not in types):
        names = "/".join("null" if t is NONE else t.__name__ for t in types)
        errors.append(f"{where} must be {names}, got {type(obj).__name__}")
        return False
    return True


def _get(obj, *keys):
    """``obj[k1][k2]...``, or None where the path leaves the objects."""
    for key in keys:
        obj = obj.get(key) if isinstance(obj, dict) else None
    return obj


def _read(path: str, errors: "list[str]", parse=json.load):
    """What ``parse`` makes of the file at ``path``, or ``_UNREAD`` once reported."""
    name = os.path.basename(path)
    if not os.path.isfile(path):
        errors.append(f"missing {name}")
        return _UNREAD
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except (OSError, ValueError) as exc:  # bad JSON and bad UTF-8 are ValueErrors
        errors.append(f"{name}: unreadable ({exc})")
        return _UNREAD


# -- the three artifacts -----------------------------------------------------------


def validate_snapshot(snapshot_dir: str) -> "list[str]":
    """All schema violations of the snapshot in ``snapshot_dir`` (empty = valid)."""
    errors: "list[str]" = []
    manifest = _read(os.path.join(snapshot_dir, MANIFEST_FILE), errors)
    state = _read(os.path.join(snapshot_dir, STATE_FILE), errors)
    if manifest is not _UNREAD:
        _shape(manifest, _MANIFEST, f"{MANIFEST_FILE}: manifest", errors)
        if _get(manifest, "schema") != SCHEMA:
            return errors  # another format's state is not read as this one's
    if state is not _UNREAD and _shape(state, {"overlay": _OVERLAY}, f"{STATE_FILE}: state", errors):
        # What restore refuses beyond the shapes, by the check restore runs.
        try:
            decode_overlay(state["overlay"], embedded_graph(state))
        except PersistError as exc:
            errors.append(f"{STATE_FILE}: {exc}")
        except (TypeError, IndexError, KeyError, ValueError, ReproError):
            errors.append(f"{STATE_FILE}: malformed embedded graph")
    if isinstance(manifest, dict) and isinstance(state, dict):
        want_id, got_id = manifest.get("snapshot_id"), snapshot_id(state)
        if want_id != got_id:
            errors.append(
                f"{STATE_FILE}: content digest {got_id} != manifest snapshot_id {want_id}"
            )
        components = manifest.get("components")
        if isinstance(components, list) and sorted(state) != sorted(map(str, components)):
            errors.append(
                f"{MANIFEST_FILE}: components {components} != state sections {sorted(state)}"
            )
    ids, want_n = _get(state, "overlay", "ids"), _get(manifest, "graph", "num_nodes")
    if isinstance(ids, list) and isinstance(want_n, int) and want_n != len(ids):
        errors.append(f"{STATE_FILE}: overlay has {len(ids)} peers, manifest graph says {want_n}")
    return errors


def _check_traces(path: str, errors: "list[str]") -> None:
    """Per-line span shapes, then the cross-span causal rules of every trace.

    A line check sees one span at a time; a chain with a missing root,
    an orphan parent reference or zero / duplicate terminals is invisible
    to it. Spans that pass their own check are assembled per trace and
    every violation is reported with its trace id, so a failed gate
    points at the pair whose story has a hole.
    """
    spans = []
    for i, span in read_jsonl(path, errors):
        kind = span.get("type")
        if kind != SPAN_TYPE:
            errors.append(f"{TRACES_FILE}:{i}: unknown span type {kind!r}")
        elif _shape(span, _SPAN, f"{TRACES_FILE}:{i}: {kind} span", errors):
            spans.append(span)
    for trace_id, trace in assemble(spans).items():
        errors.extend(f"{TRACES_FILE}: {err}" for err in chain_errors(trace_id, trace))


def validate_telemetry(telemetry_dir: str) -> "list[str]":
    """All schema violations of the telemetry in ``telemetry_dir`` (empty = valid)."""
    errors: "list[str]" = []
    report = _read(os.path.join(telemetry_dir, REPORT_FILE), errors)
    if report is not _UNREAD:
        _shape(report, _REPORT, f"{REPORT_FILE}: report", errors)
    histograms = _get(report, "metrics", "histograms")
    for name, h in histograms.items() if isinstance(histograms, dict) else ():
        where = f"{REPORT_FILE}: histogram {name!r}"
        if not _shape(h, _HISTOGRAM, where, errors):
            continue
        if len(h["counts"]) != len(h["buckets"]) + 1:
            errors.append(
                f"{where} needs len(buckets)+1 counts "
                f"(got {len(h['counts'])} for {len(h['buckets'])} edges)"
            )
        if sum(h["counts"]) != h["count"]:
            errors.append(f"{where} bucket counts != count")
    prom = _read(
        os.path.join(telemetry_dir, METRICS_FILE), errors, parse=lambda fh: fh.read().splitlines()
    )
    for i, line in enumerate(() if prom is _UNREAD else prom, 1):
        if not _PROM_LINE.match(line):
            errors.append(f"{METRICS_FILE}:{i}: malformed line {line!r}")
    traces_path = os.path.join(telemetry_dir, TRACES_FILE)
    if os.path.isfile(traces_path):
        _check_traces(traces_path, errors)
    series_path = os.path.join(telemetry_dir, SERIES_FILE)
    if os.path.isfile(series_path):
        for i, row in read_jsonl(series_path, errors):
            _shape(row, _SERIES_ROW, f"{SERIES_FILE}:{i}: row", errors)
    return errors


def validate_verdict(verdict) -> "list[str]":
    """All schema violations in one verdict document (empty = valid)."""
    errors: "list[str]" = []
    _shape(verdict, _VERDICT, "verdict", errors)
    objectives = _get(verdict, "objectives")
    if not isinstance(objectives, list):
        return errors
    all_passed = True
    for i, obj in enumerate(objectives):
        where = f"objectives[{i}]"
        if not _shape(obj, _OBJECTIVE, where, errors):
            continue
        if obj["kind"] not in ("floor", "ceiling"):
            errors.append(f"{where} kind must be floor/ceiling, got {obj['kind']!r}")
        gap = obj["observed"] - obj["threshold"]
        margin = gap if obj["kind"] == "floor" else -gap
        if abs(margin - obj["margin"]) > 1e-9:
            errors.append(
                f"{where} margin {obj['margin']} inconsistent with "
                f"observed/threshold (expected {margin})"
            )
        if obj["passed"] != (obj["margin"] >= 0.0):
            errors.append(f"{where} passed flag inconsistent with margin")
        all_passed = all_passed and obj["passed"]
    if isinstance(verdict.get("passed"), bool) and verdict["passed"] != all_passed:
        errors.append("'passed' inconsistent with objective rows")
    return errors


def _verdict_file(path: str) -> "list[str]":
    errors: "list[str]" = []
    verdict = _read(path, errors)
    if verdict is not _UNREAD:
        errors += [f"{os.path.basename(path)}: {err}" for err in validate_verdict(verdict)]
    return errors


# -- one path, one verb ----------------------------------------------------------

#: kind -> (the files that make a directory hold one — one without the
#: other is that artifact, broken — and the check of a directory's).
_KINDS = {
    "snapshot": ((MANIFEST_FILE, STATE_FILE), validate_snapshot),
    "telemetry": ((REPORT_FILE, METRICS_FILE), validate_telemetry),
    "verdict": ((VERDICT_FILE,), lambda d: _verdict_file(os.path.join(d, VERDICT_FILE))),
}


def _kinds(path: str) -> "list[str]":
    """Which known artifacts ``path`` holds (a file is taken as a verdict)."""
    if os.path.isfile(path):
        return ["verdict"]
    return [
        kind
        for kind, (files, _) in _KINDS.items()
        if any(os.path.isfile(os.path.join(path, name)) for name in files)
    ]


def validate_path(path: str) -> "list[str]":
    """Check every known artifact at ``path`` (empty = all valid).

    A file is a verdict document; a directory is searched for a
    snapshot, telemetry and a verdict, each checked in full when any
    required file of it is present, and must hold at least one.
    """
    if os.path.isfile(path):
        return _verdict_file(path)
    if not os.path.isdir(path):
        return [f"{path!r} is not a file or directory"]
    kinds = _kinds(path)
    if not kinds:
        wanted = "; ".join(f"{kind}: {' + '.join(files)}" for kind, (files, _) in _KINDS.items())
        return [f"{path!r} holds no known artifact (looked for {wanted})"]
    return [err for kind in kinds for err in _KINDS[kind][1](path)]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: select-repro validate PATH", file=sys.stderr)
        return 2
    errors = validate_path(argv[0])
    if errors:
        for err in errors:
            print(f"SCHEMA ERROR: {err}", file=sys.stderr)
        return 1
    print(f"{argv[0]}: {' + '.join(_kinds(argv[0]))} schema OK")
    return 0
