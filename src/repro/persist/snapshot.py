"""Snapshot capture/restore for live SELECT state.

Format (``select-repro/snapshot/v2``): a snapshot is a plain dict with
two keys — ``manifest`` (schema tag, content-derived snapshot id, config,
graph fingerprint, round counter, component inventory, RNG stream names)
and ``state`` (the full payload). :func:`save`/:func:`load` persist it as a
directory of ``manifest.json`` + ``state.json`` holding compact JSON (the
container stays on the standard toolchain — no msgpack).

``state.overlay`` is the overlay's own columns — its peer and edge columns,
``ring_pred`` / ``ring_succ``, and long links, successor lists, admitted
sources and behaviour CMAs each as a CSR. A captured state holds each
column as an owned numpy copy, so capture is a copy per column and restore
an assignment per column plus one write per routing table; JSON exists
only in the canonical text, which writes an array as its ``tolist()``
(:func:`load` returns lists, and both forms restore alike). Learn stamps
and each observer's row of the CMA book keep their order (it is state:
recovery probes in it, and under faults each probe draws RNG); order-free
sets are stored sorted;
each distinct link view (a row of the edge columns' link log) is stored
once. Nothing derived is stored (packed keys, log row ids, LSH positions
are rebuilt). Bitmaps are hex strings in the text, out of reach of Python's
int/str digit limit, and in memory the overlay's own column of ints; the
hash and :func:`save` take the text in pieces, never whole.
The snapshot id is a SHA-256 over the canonical state encoding, so
re-capturing identical state yields an identical snapshot (what keeps the
committed golden fixture stable).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict

import numpy as np

from repro.core import config
from repro.core.columns import CHUNK
from repro.core.config import SelectConfig
from repro.core.picker import packed_key
from repro.graphs.graph import SocialGraph
from repro.lsh.bitsampling import sample_rows
from repro.net.availability import CMA_MIN_OBSERVATIONS, CMA_THRESHOLD
from repro.overlay.base import INCOMING_SLACK
from repro.sim.trace import TraceRecorder
from repro.util.atomicio import atomic_write_json, atomic_write_pieces
from repro.util.exceptions import ConfigurationError, PersistError
from repro.util.exceptions import SnapshotIntegrityError, SnapshotIOError
from repro.util.rng import generator_state, restore_generator

__all__ = [
    "SCHEMA",
    "MANIFEST_FILE",
    "STATE_FILE",
    "capture",
    "decode_overlay",
    "embedded_graph",
    "graph_fingerprint",
    "load",
    "restore",
    "restore_into",
    "save",
    "snapshot_id",
]

SCHEMA = "select-repro/snapshot/v2"
MANIFEST_FILE = "manifest.json"
STATE_FILE = "state.json"

#: the ``config`` block beyond the :class:`SelectConfig` fields: each
#: constant under its name, with the one value this code builds with.
_CONSTANTS = {
    "lsh_samples": config.LSH_SAMPLES,
    "movement_tolerance": config.MOVEMENT_TOLERANCE,
    "convergence_rounds": config.CONVERGENCE_ROUNDS,
    "max_moves": config.MAX_MOVES,
    "merge_radius": config.MERGE_RADIUS,
    "reassign_stride": config.REASSIGN_STRIDE,
    "stabilize_after": config.STABILIZE_AFTER,
    "max_link_changes": config.MAX_LINK_CHANGES,
    "successor_list_length": config.SUCCESSOR_LIST_LENGTH,
    "catchup_capacity": config.CATCHUP_CAPACITY,
    "cma_threshold": CMA_THRESHOLD,
    "cma_min_observations": CMA_MIN_OBSERVATIONS,
}
#: the :class:`~repro.core.columns.PeerColumns` stored under ``peers``
#: (the identifier column is ``ids``) and the
#: :class:`~repro.core.columns.EdgeColumns` stored under ``edges``.
_PEER_COLUMNS = ("moves_done", "stable_rounds", "link_change_budget", "top2", "anchor_pair")
_EDGE_COLUMNS = ("mutual", "mutual_stamp", "bitmap_stamp", "bucket")


def _listed(column: np.ndarray) -> list:
    """A held column as the text's list: bitmaps (an object column) in hex."""
    return [None if b is None else format(b, "x") for b in column.tolist()] if column.dtype == object else column.tolist()


def _canonical(state: dict) -> str:
    """The state's canonical JSON text: what ``state.json`` holds, less its
    newline. A numpy column is written as :func:`_listed`, so a held array
    and the list :func:`load` reads back encode alike."""
    return json.dumps(state, sort_keys=True, separators=(",", ":"), default=_listed)


def snapshot_id(state: dict) -> str:
    """Content-derived id of a state payload (stable across re-captures): the
    sha256 of :func:`_canonical`'s text, fed in pieces, never built whole."""
    digest = hashlib.sha256()
    _feed(state, lambda text: digest.update(text.encode("utf-8")))
    return digest.hexdigest()[:16]


#: items of an array or a long list that :func:`_feed` encodes at once.
_CHUNK = 1 << 10


def _feed(value, write) -> None:
    """Write ``_canonical(value)`` in pieces: a dict with string keys key by
    key, an array or a list longer than a chunk a chunk of items at a time,
    anything else whole."""
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        for i, key in enumerate(sorted(value)):
            write(("," if i else "{") + json.dumps(key) + ":")
            _feed(value[key], write)
        write("}" if value else "{}")
    elif isinstance(value, np.ndarray) and value.ndim or isinstance(value, (list, tuple)) and len(value) > _CHUNK:
        for at in range(0, len(value), _CHUNK):
            write(("," if at else "[") + _canonical(value[at : at + _CHUNK])[1:-1])
        write("]" if len(value) else "[]")
    else:
        write(_canonical(value))


def graph_fingerprint(graph: SocialGraph) -> str:
    """Digest of the social graph's exact node/edge structure, fed in pieces."""
    digest = hashlib.sha256(f"n={graph.num_nodes};".encode("utf-8"))
    indptr, indices = graph.csr
    for at in range(0, len(indices), _CHUNK):
        vs = indices[at : at + _CHUNK]
        us = np.searchsorted(indptr, np.arange(at, at + len(vs)), side="right") - 1
        digest.update("".join(map("{},{};".format, us[us < vs].tolist(), vs[us < vs].tolist())).encode("utf-8"))
    return digest.hexdigest()[:16]


# -- per-component capture ---------------------------------------------------


def _padded_csr(column: np.ndarray, sort: bool = False) -> dict:
    """A column of ``-1``-padded rows as one CSR, each row sorted when ``sort``."""
    if sort:
        column = np.sort(column, axis=1)
    held = column >= 0
    return {"indptr": np.concatenate(([0], np.cumsum(held.sum(axis=1)))), "values": column[held]}


def _views(edges) -> "tuple[np.ndarray, dict]":
    """Each slot's view index and the distinct views as a CSR: log rows equal
    in content are stored once, numbered in the order slots first name them.
    Slots are read ``CHUNK`` at a time; only the rows they name are read."""
    targets, indptr = edges.targets, edges.indptr
    number = np.full(edges.rows, -1, dtype=np.int32)
    view = np.full(len(edges.view), -1, dtype=np.int32)
    views: dict = {}
    for lo in range(0, len(view), CHUNK):
        named = edges.view[lo : lo + CHUNK]
        held = named >= 0
        rows, first = np.unique(named[held], return_index=True)
        fresh = number[rows] < 0
        for row in rows[fresh][np.argsort(first[fresh])].tolist():
            # A row is sorted and unique: equal bytes are equal views.
            number[row] = views.setdefault(targets[indptr[row] : indptr[row + 1]].tobytes(), len(views))
        view[lo : lo + CHUNK][held] = number[named[held]]
    lengths = [len(row) // targets.itemsize for row in views]
    return view, {
        "indptr": np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
        "values": np.frombuffer(b"".join(views), dtype=targets.dtype),
    }


def _capture_overlay(overlay) -> dict:
    cols, edges = overlay.columns, overlay.edge_columns
    view, views = _views(edges)
    # The CMA book as one CSR by observer, each row in first-observation order.
    pairs = np.array(list(overlay.cma), dtype=np.int64).reshape(-1, 2)
    cmas = np.array(list(overlay.cma.values()), dtype=np.float64).reshape(-1, 2)
    order = np.argsort(pairs[:, 0], kind="stable")
    per_observer = np.bincount(pairs[:, 0], minlength=len(overlay.ids))
    return {
        "k_links": int(overlay.k_links),
        "config": {**asdict(overlay.config), **_CONSTANTS},
        "built": bool(overlay._built),
        "iterations": int(overlay.iterations),
        "round_link_changes": int(overlay.round_link_changes),
        "quiet_rounds": int(overlay._quiet_rounds),
        "lsh_seed": int(overlay._lsh_seed),
        "ids": overlay.ids.copy(),
        "pending_ids": overlay.pending_ids.copy(),
        "upload_mbps": None if overlay.upload_mbps is None else overlay.upload_mbps.copy(),
        "join_events": [[s, u, None if i < 0 else i] for u, i, s in overlay.join_log.T.tolist()],
        "trace": overlay.trace.to_rows(),
        "peers": {
            **{name: getattr(cols, name).copy() for name in _PEER_COLUMNS},
            "anchor_target": [None if t != t else t for t in cols.anchor_target.tolist()],
        },
        "edges": {
            **{name: getattr(edges, name).copy() for name in _EDGE_COLUMNS},
            "bitmap": edges.bitmap.copy(),
            "view": view,
        },
        "views": views,
        "tables": {
            "ring_pred": overlay.ring_pred.copy(),
            "ring_succ": overlay.ring_succ.copy(),
            "long_links": _padded_csr(overlay.long_links, sort=True),
            "successors": _padded_csr(overlay.link_columns.successors),
        },
        "incoming_sources": _padded_csr(overlay.incoming_sources, sort=True),
        "behavior": {
            "indptr": np.concatenate(([0], np.cumsum(per_observer))),
            "values": pairs[order, 1],
            "count": cmas[order, 0].astype(np.int64),
            "mean": cmas[order, 1],
        },
    }


def _capture_graph(graph: SocialGraph) -> dict:
    return {
        "name": graph.name,
        "num_nodes": int(graph.num_nodes),
        "edges": np.column_stack(graph.edge_array()),
    }


def _fault_params(plan) -> dict:
    return {
        "loss_rate": plan.loss_rate,
        "link_loss": [[int(u), int(v), float(p)] for (u, v), p in sorted(plan.link_loss.items())],
        "retry_budget": plan.retry_budget,
        "ping_false_negative": plan.ping_false_negative,
        "ping_false_positive": plan.ping_false_positive,
        "ping_attempts": plan.ping_attempts,
        "suspicion_threshold": plan.suspicion_threshold,
        "graceful_fraction": plan.graceful_fraction,
        "partitions": [
            [[float(p.cut[0]), float(p.cut[1])], float(p.start), float(p.end)]
            for p in plan.partitions
        ],
    }


def _capture_faults(plan) -> dict:
    return {
        "params": _fault_params(plan),
        "rng": generator_state(plan._rng),
        "stats": plan.stats.as_dict(),
        "graceful": [[int(p), bool(g)] for p, g in plan._graceful.items()],
    }


def _restore_faults(plan, data: dict) -> None:
    if _fault_params(plan) != data["params"]:
        raise PersistError(
            "fault plan mismatch: the live FaultPlan's parameters differ from "
            "the snapshotted plan (construct it with the same arguments)"
        )
    plan._rng = restore_generator(data["rng"])
    _apply_stats(plan.stats, data["stats"])
    plan._graceful = {int(p): bool(g) for p, g in data["graceful"]}


def _apply_stats(stats, values: dict) -> None:
    for key, value in values.items():
        if not hasattr(stats, key):
            raise PersistError(f"unknown stats field {key!r} for {type(stats).__name__}")
        setattr(stats, key, value)


def _capture_pings(pings) -> dict:
    return {
        "base_timeout_ms": float(pings.base_timeout_ms),
        "backoff": float(pings.backoff),
        # Sorted by (observer, contact): the table's own order is history.
        "suspicion": sorted(
            [int(o), int(c), int(n)]
            for c, observers in pings._suspicion.items()
            for o, n in observers.items()
        ),
    }


def _restore_pings(pings, data: dict) -> None:
    # _online is transient (reinstalled every maintenance tick), so only
    # the suspicion counters carry across a snapshot boundary.
    pings._suspicion = {}
    for o, c, n in data["suspicion"]:
        pings._suspicion.setdefault(int(c), {})[int(o)] = int(n)


def _capture_stabilizer(stab) -> dict:
    return {
        "list_length": int(stab.list_length),
        "stats": stab.stats.as_dict(),
        "pings": _capture_pings(stab.pings),
    }


def _restore_stabilizer(stab, data: dict) -> None:
    _apply_stats(stab.stats, data["stats"])
    _restore_pings(stab.pings, data["pings"])


def _capture_recovery(recovery) -> dict:
    return {
        "now": float(recovery.now),
        **recovery.stats.as_dict(),
        "pings": _capture_pings(recovery.pings),
    }


def _restore_recovery(recovery, data: dict) -> None:
    recovery.now = float(data["now"])
    _apply_stats(recovery.stats, {key: int(data[key]) for key in recovery.stats.as_dict()})
    _restore_pings(recovery.pings, data["pings"])


def _capture_catchup(store) -> dict:
    return {
        "capacity": int(store.capacity),
        "next_seq": int(store._next_seq),
        "stats": store.stats.as_dict(),
        "buffers": [
            [int(h), [[int(s), int(sub), bool(c)] for s, sub, c in buf]]
            for h, buf in store.buffers.items()
        ],
        "seen": [
            [int(sub), sorted(int(s) for s in seqs)]
            for sub, seqs in store._seen.items()
        ],
    }


def _restore_catchup(store, data: dict) -> None:
    from collections import deque

    store.capacity = int(data["capacity"])
    store._next_seq = int(data["next_seq"])
    _apply_stats(store.stats, data["stats"])
    store.buffers = {
        int(h): deque((int(s), int(sub), bool(c)) for s, sub, c in buf)
        for h, buf in data["buffers"]
    }
    store._seen = {int(sub): set(int(s) for s in seqs) for sub, seqs in data["seen"]}


# -- top-level capture / restore ---------------------------------------------


def capture(
    overlay,
    *,
    faults=None,
    stabilizer=None,
    recovery=None,
    catchup=None,
    sim: "dict | None" = None,
    include_graph: bool = True,
) -> dict:
    """Snapshot a live :class:`~repro.core.select.SelectOverlay` and friends.

    Returns ``{"manifest": ..., "state": ...}``; the state holds the
    overlay's columns as numpy copies. The id hashes the state's
    canonical JSON text, which is not kept: :func:`save` encodes the
    state it is given. Optional
    components are captured when passed; ``sim`` is an opaque pre-built
    dict (the simulator's own resume payload). With
    ``include_graph`` the social graph's edges are embedded so
    :func:`restore` can rebuild the overlay standalone.
    """
    state: dict = {"overlay": _capture_overlay(overlay)}
    if include_graph:
        state["graph"] = _capture_graph(overlay.graph)
    if faults is not None:
        state["faults"] = _capture_faults(faults)
    if stabilizer is not None:
        state["stabilizer"] = _capture_stabilizer(stabilizer)
    if recovery is not None:
        state["recovery"] = _capture_recovery(recovery)
    if catchup is not None:
        state["catchup"] = _capture_catchup(catchup)
    if sim is not None:
        state["sim"] = sim
    graph = overlay.graph
    manifest = {
        "schema": SCHEMA,
        "snapshot_id": snapshot_id(state),
        "round": int(overlay.iterations),
        "config": dict(state["overlay"]["config"]),
        "graph": {
            "name": graph.name,
            "num_nodes": int(graph.num_nodes),
            "num_edges": int(graph.num_edges),
            "fingerprint": graph_fingerprint(graph),
        },
        "components": sorted(state),
        "rng_streams": sorted(name for name in state if "rng" in state[name]),
    }
    return {"manifest": manifest, "state": state}


#: every :class:`SelectConfig` field with its default, whose type a stored
#: value must have.
_FIELDS = asdict(SelectConfig())


def _config(block: dict) -> SelectConfig:
    """The ``SelectConfig`` of a ``config`` block: every constant must carry
    the code's value and every other key must be a field of its type."""
    chosen = {}
    for key, value in block.items():
        if key in _CONSTANTS:
            want = _CONSTANTS[key]
            if value != want or type(value) is not type(want):
                raise PersistError(
                    f"snapshot config {key!r} is {value!r}; this code builds with {want!r}"
                )
        elif key not in _FIELDS:
            raise PersistError(f"snapshot config has unknown key {key!r}")
        elif type(value) is not type(_FIELDS[key]):
            raise PersistError(
                f"snapshot config {key!r} must be {type(_FIELDS[key]).__name__}, got {value!r}"
            )
        else:
            chosen[key] = value
    try:
        return SelectConfig(**chosen)
    except ConfigurationError as exc:
        raise PersistError(f"snapshot config: {exc}") from None


def _array(value, dtype, shape: tuple, name: str) -> np.ndarray:
    """``value`` as an array of ``shape``; integers keep the dtype they arrive in."""
    out = np.asarray(value, dtype=None if dtype is np.int64 and len(value) else dtype)
    if dtype is np.int64 and out.dtype.kind != "i":
        raise PersistError(f"{name} must hold integers, got {out.dtype}")
    if out.shape != shape:
        raise PersistError(f"{name} has shape {out.shape}, not {shape}")
    return out


def _nodes(ids: np.ndarray, n: int, name: str, unset: bool = False) -> np.ndarray:
    """``ids`` when every one names a node (or is ``-1`` where ``unset``)."""
    bad = ids[(ids < (-1 if unset else 0)) | (ids >= n)]
    if bad.size:
        raise PersistError(f"{name} names node {int(bad[0])}, outside [0, {n})")
    return ids


def _split(block: dict, n: int, name: str, per_node: bool = True, sets: bool = False) -> "tuple[np.ndarray, np.ndarray]":
    """A CSR's ``(indptr, values)``: pointers from 0 to ``len(values)`` that
    never decrease (one row per node when ``per_node``), over node ids, and
    rows that ascend when they are ``sets``."""
    values = _nodes(_array(block["values"], np.int64, (len(block["values"]),), name), n, name)
    rows = n if per_node else len(block["indptr"]) - 1
    indptr = _array(block["indptr"], np.int64, (rows + 1,), f"{name}.indptr")
    if indptr[0] != 0 or indptr[-1] != len(values) or (np.diff(indptr) < 0).any():
        raise PersistError(f"{name}.indptr is not a CSR over its {len(values)} values")
    if sets:
        starts = np.zeros(len(values) + 1, dtype=bool)
        starts[indptr] = True
        if (~starts[1:-1] & (values[1:] <= values[:-1])).any():
            raise PersistError(f"{name} has a row that does not ascend")
    return indptr, values


def _refuse_slot(bad: np.ndarray, problem: str) -> None:
    if bad.any():
        raise PersistError(f"edge slot {int(np.argmax(bad))} holds {problem}")


def decode_overlay(data: dict, graph: "SocialGraph | None") -> "tuple[SelectConfig, dict]":
    """The ``SelectConfig`` and numpy columns of an overlay block, or a
    ``PersistError`` naming the first thing an overlay cannot hold.

    :func:`restore_into` and ``select-repro validate`` both call it, so they
    refuse the same blocks (DESIGN §7 lists the rules). Without ``graph`` (a
    snapshot validated without its graph) the columns give the slot count
    and bitmap widths go unchecked.
    """
    try:
        return _decode(data, graph)
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistError(f"malformed overlay block: {exc!r}") from None


def _decode(data: dict, graph: "SocialGraph | None") -> "tuple[SelectConfig, dict]":
    cfg, n = _config(data["config"]), len(data["ids"])
    if graph is not None and graph.num_nodes != n:
        raise PersistError(f"{n} ids for a graph of {graph.num_nodes} nodes")
    out = {name: _array(data[name], np.float64, (n,), name) for name in ("ids", "pending_ids")}
    peers, edges, tables, behavior = data["peers"], data["edges"], data["tables"], data["behavior"]
    out["anchor_target"] = _array(peers["anchor_target"], np.float64, (n,), "peers.anchor_target")
    for name in _PEER_COLUMNS:
        pair = name in ("top2", "anchor_pair")  # (n, 2) columns of node ids
        out[name] = _array(peers[name], np.int64, (n, 2) if pair else (n,), f"peers.{name}")
        if pair:
            _nodes(out[name], n, f"peers.{name}", unset=True)
    for name in ("ring_pred", "ring_succ"):
        out[name] = _nodes(_array(tables[name], np.int64, (n,), name), n, name, unset=True)
    out["long_links"] = _split(tables["long_links"], n, "long_links", sets=True)
    out["successors"] = _split(tables["successors"], n, "successors")
    out["incoming_sources"] = _split(data["incoming_sources"], n, "incoming_sources", sets=True)
    k = int(data["k_links"])
    for name, width in (("long_links", k), ("incoming_sources", k + INCOMING_SLACK)):
        longest = np.diff(out[name][0]).max()
        if longest > width:
            raise PersistError(f"{name} has a row of {longest}; k_links={k} allows {width}")
    out["behavior"] = _split(behavior, n, "behavior")
    size = len(behavior["values"])
    out["cma"] = (
        _array(behavior["count"], np.int64, (size,), "behavior.count").tolist(),
        _array(behavior["mean"], np.float64, (size,), "behavior.mean").tolist(),
    )

    slots = len(edges["mutual"]) if graph is None else int(graph.csr[0][-1])
    for name in _EDGE_COLUMNS + ("view",):
        out[name] = _array(edges[name], np.int64, (slots,), f"edges.{name}")
    views = out["views"] = _split(data["views"], n, "views", per_node=False, sets=True)
    view, count = out["view"], len(views[0]) - 1
    if ((view < -1) | (view >= count)).any():
        raise PersistError(f"edges.view indexes past the {count} views")
    bitmap = edges["bitmap"]
    if len(bitmap) != slots:
        raise PersistError(f"edges.bitmap has {len(bitmap)} slots, not {slots}")
    # A held column's ints, or the text's hex strings (int() refuses an int).
    if not isinstance(bitmap, np.ndarray):
        bitmap = np.fromiter((None if b is None else int(b, 16) for b in bitmap), dtype=object, count=slots)
    out["bitmap"] = bitmap
    learned, counted = out["bitmap_stamp"] >= 0, out["mutual_stamp"] >= 0
    _refuse_slot(
        ((view >= 0) != learned) | (np.not_equal(bitmap, None) != learned),
        "a view, bitmap or bitmap stamp without the other two",
    )
    _refuse_slot((out["mutual"] >= 0) != counted, "a mutual count or its stamp without the other")
    _refuse_slot(learned & ~counted, "a bitmap without a mutual count")
    late = np.maximum(out["mutual_stamp"], out["bitmap_stamp"]) >= 2**31 - 1
    _refuse_slot(late, "a learn stamp past the int32 stamp columns")
    # int.bit_length refuses anything but an int (a hex string in a held column).
    bits = np.frompyfunc(int.bit_length, 1, 1)(bitmap[learned]).astype(np.int64)
    if graph is not None:
        wide = np.zeros(slots, dtype=bool)
        wide[learned] = (bitmap[learned] < 0) | (bits > np.repeat(graph.degrees, graph.degrees)[learned])
        _refuse_slot(wide, "a bitmap wider than its owner's degree")
    return cfg, out


def _unpack(snapshot: dict) -> "tuple[dict, dict]":
    if not isinstance(snapshot, dict) or "manifest" not in snapshot or "state" not in snapshot:
        raise PersistError("not a snapshot: expected {'manifest': ..., 'state': ...}")
    manifest = snapshot["manifest"]
    if manifest.get("schema") != SCHEMA:
        raise PersistError(
            f"unsupported snapshot schema {manifest.get('schema')!r} (expected {SCHEMA!r})"
        )
    return manifest, snapshot["state"]


def _padded(indptr: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
    """A CSR as ``width``-wide int32 rows, each its entries then ``-1``s."""
    lengths = np.diff(indptr)
    out = np.full((len(lengths), width), -1, dtype=np.int32)
    at = np.arange(len(values)) - np.repeat(indptr[:-1], lengths)
    out[np.repeat(np.arange(len(lengths)), lengths), at] = values
    return out


def restore_into(
    snapshot: dict,
    overlay,
    *,
    faults=None,
    stabilizer=None,
    recovery=None,
    catchup=None,
):
    """Restore a snapshot in place into live objects; returns ``overlay``.

    The overlay must wrap the same social graph (verified by fingerprint)
    with the same ``k_links``. Component arguments are restored when both
    the argument and the snapshotted component are present; passing a
    component the snapshot does not carry raises, since silently leaving
    it at its fresh state would break replay.
    """
    manifest, state = _unpack(snapshot)
    fingerprint = graph_fingerprint(overlay.graph)
    want = manifest["graph"]["fingerprint"]
    if fingerprint != want:
        raise PersistError(
            f"graph mismatch: overlay graph fingerprint {fingerprint} != snapshot {want}"
        )
    data = state["overlay"]
    if int(data["k_links"]) != int(overlay.k_links):
        raise PersistError(
            f"k_links mismatch: overlay has {overlay.k_links}, snapshot has {data['k_links']}"
        )
    overlay.config, cols = decode_overlay(data, overlay.graph)
    overlay.iterations = int(data["iterations"])
    overlay.round_link_changes = int(data["round_link_changes"])
    overlay._quiet_rounds = int(data["quiet_rounds"])
    # In place: ids is the identifier column (PeerColumns and the ring index
    # hold it); rebinding would silently detach them from the restored values.
    overlay.ids[:] = cols["ids"]
    overlay.pending_ids[:] = cols["pending_ids"]
    overlay._ring_index.invalidate()
    for name in _PEER_COLUMNS + ("anchor_target",):
        getattr(overlay.columns, name)[:] = cols[name]

    edges = overlay.edge_columns
    for name in _EDGE_COLUMNS + ("bitmap",):
        getattr(edges, name)[:] = cols[name]
    # The views (rows sorted and unique, as decode checked) are the whole link
    # log, so a view's index is its row id; no head names a row until a build
    # logs links again.
    indptr, values = cols["views"]
    edges.indptr, edges.targets = indptr.astype(np.int64), values.astype(np.int32)
    edges.rows = len(indptr) - 1
    edges.view[:] = cols["view"]
    overlay.link_head[:] = -1
    edges.key[:] = -1
    learned = np.flatnonzero(cols["bitmap_stamp"] >= 0)
    popcount = np.fromiter((b.bit_count() for b in cols["bitmap"][learned]), dtype=np.int64)
    edges.key[learned] = packed_key(overlay._nbr_indices[learned], popcount)
    # Stamps are verbatim; only their order within a peer is state, so the
    # clock restarts past the largest.
    last = max(cols["mutual_stamp"].max(initial=-1), cols["bitmap_stamp"].max(initial=-1))
    edges.clock = int(last) + 1

    # The link columns are stored whole; every table counts as written.
    overlay.ring_pred[:] = cols["ring_pred"]
    overlay.ring_succ[:] = cols["ring_succ"]
    for name in ("long_links", "incoming_sources"):
        column = getattr(overlay, name)
        column[:] = _padded(*cols[name], column.shape[1])
    successors = cols["successors"]
    overlay.link_columns.successors = _padded(*successors, int(np.diff(successors[0]).max()))
    overlay.incoming_count[:] = np.diff(cols["incoming_sources"][0])
    overlay.links_written[:] = True
    overlay._link_version[0] += 1
    indptr, contacts = cols["behavior"]
    observers = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    overlay.cma.clear()
    overlay.cma.update(zip(zip(observers.tolist(), contacts.tolist()), zip(*cols["cma"])))

    upload = data["upload_mbps"]
    overlay.upload_mbps = None if upload is None else np.array(upload, dtype=np.float64)
    log = [[u, -1 if i is None else i, s] for s, u, i in data["join_events"]]
    overlay.join_log = np.array(log, dtype=np.int64).reshape(-1, 3).T
    trace = TraceRecorder()
    for row in data["trace"]:
        trace.record(row["series"], row["round"], row["value"])
    overlay.trace = trace
    # LSH positions are derived state: redrawn from the restored lsh_seed.
    overlay._lsh_seed = int(data["lsh_seed"])
    overlay.columns.lsh_sample[:] = sample_rows(overlay._degs, config.LSH_SAMPLES, overlay._lsh_seed)
    overlay._built = bool(data["built"])

    for name, target, apply in (
        ("faults", faults, _restore_faults),
        ("stabilizer", stabilizer, _restore_stabilizer),
        ("recovery", recovery, _restore_recovery),
        ("catchup", catchup, _restore_catchup),
    ):
        if target is None:
            continue
        if name not in state:
            raise PersistError(
                f"cannot restore {name}: snapshot {manifest['snapshot_id']} has no "
                f"{name!r} component (captured: {manifest['components']})"
            )
        apply(target, state[name])
    return overlay


def embedded_graph(state: dict) -> "SocialGraph | None":
    """The social graph a snapshot state embeds (None when captured without)."""
    if (gdata := state.get("graph")) is None:
        return None
    return SocialGraph(int(gdata["num_nodes"]), gdata["edges"], name=gdata["name"])


def restore(snapshot: dict, graph: "SocialGraph | None" = None):
    """Rebuild a fresh, fully restored overlay from a snapshot.

    The graph is taken from the embedded edge list unless passed
    explicitly (snapshots captured with ``include_graph=False`` need it).
    Component state (faults, stabilizer, ...) is *not* restored here —
    those live objects belong to the caller; use :func:`restore_into`.
    """
    from repro.core.select import SelectOverlay

    _, state = _unpack(snapshot)
    graph = embedded_graph(state) if graph is None else graph
    if graph is None:
        raise PersistError(
            "snapshot has no embedded graph (captured with include_graph=False); "
            "pass graph= explicitly"
        )
    return restore_into(snapshot, SelectOverlay(graph, k_links=int(state["overlay"]["k_links"])))


# -- directory persistence ----------------------------------------------------


def save(snapshot: dict, out_dir: str) -> dict:
    """Write ``manifest.json`` + ``state.json`` into ``out_dir``.

    Both files are written atomically (tmp + fsync + ``os.replace``):
    the state payload lands first, then the manifest that vouches for
    it, so a crash at any instant leaves either the previous snapshot
    intact or a fully consistent new one — never a manifest pointing at
    truncated state. The state text is written in :func:`_feed`'s pieces.
    """
    manifest, state = _unpack(snapshot)
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, MANIFEST_FILE)
    state_path = os.path.join(out_dir, STATE_FILE)
    atomic_write_pieces(state_path, lambda write: (_feed(state, write), write("\n")))
    atomic_write_json(manifest_path, manifest, indent=2, sort_keys=True)
    return {"manifest": manifest_path, "state": state_path}


def load(path: str) -> dict:
    """Read a snapshot directory back; verifies schema and integrity.

    ``path`` is the directory :func:`save` wrote. The state payload's
    content digest must match the manifest's ``snapshot_id`` — a
    truncated or hand-edited ``state.json`` is refused rather than
    restored into a half-consistent overlay.
    """
    manifest_path = os.path.join(path, MANIFEST_FILE)
    state_path = os.path.join(path, STATE_FILE)
    for p in (manifest_path, state_path):
        if not os.path.isfile(p):
            raise PersistError(f"missing snapshot file: {p}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(state_path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
    except OSError as exc:
        raise SnapshotIOError(f"unreadable snapshot at {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotIntegrityError(f"corrupt snapshot at {path}: {exc}") from exc
    snapshot = {"manifest": manifest, "state": state}
    _unpack(snapshot)
    digest = snapshot_id(state)
    if digest != manifest.get("snapshot_id"):
        raise SnapshotIntegrityError(
            f"snapshot integrity check failed: state digest {digest} != "
            f"manifest snapshot_id {manifest.get('snapshot_id')}"
        )
    return snapshot
