"""Snapshot capture/restore for live SELECT state.

Format (``select-repro/snapshot/v1``): a snapshot is a plain dict with
two keys — ``manifest`` (schema tag, content-derived snapshot id, config,
graph fingerprint, round counter, component inventory, RNG stream names)
and ``state`` (the full JSON-safe payload). :func:`save`/:func:`load`
persist it as a directory of ``manifest.json`` + ``state.json``; the
payload is JSON (the container deliberately stays on the standard
toolchain — no msgpack), compact-encoded so a few-hundred-node snapshot
stays in the hundreds of kilobytes.

Determinism contract: everything order-sensitive is serialized in its
live iteration order (dicts preserve insertion order and are stored as
pair lists), and everything consumed through a total order (link sets,
lookahead members, admission sets) is stored sorted. LSH families are
*not* serialized: they are pure functions of ``lsh_seed + vertex`` and
are rebuilt at restore. The snapshot id is a SHA-256 over the
canonical state encoding — no timestamps — so re-capturing identical
state yields an identical snapshot (what keeps the committed golden
fixture stable).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, fields

import numpy as np

from repro.core.config import SelectConfig
from repro.graphs.graph import SocialGraph
from repro.net.availability import CumulativeMovingAverage
from repro.net.growth import JoinEvent
from repro.sim.trace import TraceRecorder
from repro.util.atomicio import atomic_write_json
from repro.util.exceptions import PersistError, SnapshotIntegrityError, SnapshotIOError
from repro.util.rng import generator_state, restore_generator

__all__ = [
    "SCHEMA",
    "MANIFEST_FILE",
    "STATE_FILE",
    "capture",
    "graph_fingerprint",
    "load",
    "restore",
    "restore_into",
    "save",
    "snapshot_id",
]

SCHEMA = "select-repro/snapshot/v1"
MANIFEST_FILE = "manifest.json"
STATE_FILE = "state.json"


def _canonical(state: dict) -> bytes:
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode("utf-8")


def snapshot_id(state: dict) -> str:
    """Content-derived id of a state payload (stable across re-captures)."""
    return hashlib.sha256(_canonical(state)).hexdigest()[:16]


def graph_fingerprint(graph: SocialGraph) -> str:
    """Digest of the social graph's exact node/edge structure."""
    h = hashlib.sha256()
    h.update(f"n={graph.num_nodes};".encode("utf-8"))
    for u, v in graph.edges():
        h.update(f"{u},{v};".encode("utf-8"))
    return h.hexdigest()[:16]


# -- per-component capture ---------------------------------------------------


def _words_from_int(bitmap: int, nbits: int) -> "list[int]":
    """A bitmap int as v1's little-endian ``numpy.uint64`` words (at least one)."""
    nwords = max(1, (nbits + 63) // 64)
    if bitmap < 0 or bitmap.bit_length() > 64 * nwords:
        raise PersistError(f"bitmap does not fit in {nbits} bits")
    return [(bitmap >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(nwords)]


def _int_from_words(words) -> int:
    """Inverse of :func:`_words_from_int`: word ``i`` holds bits ``64i ..``."""
    return sum(int(w) << (64 * i) for i, w in enumerate(words))


def _capture_peer(peer) -> dict:
    table = peer.table
    pair = peer.last_anchor_pair
    return {
        "node": int(peer.node),
        "identifier": float(peer.identifier),
        "joined": bool(peer.joined),
        "moves_done": int(peer.moves_done),
        "stable_rounds": int(peer.stable_rounds),
        "link_change_budget": int(peer.link_change_budget),
        "last_anchor_pair": None if pair is None else [int(a) for a in pair],
        "last_anchor_target": None if pair is None else float(peer.last_anchor_target),
        "top2": [int(f) for f in peer._top2],
        # Dicts keep their live insertion order (pair lists): candidate
        # scans iterate them, and under an active fault plan each probe
        # consumes RNG — a re-ordered restore would desynchronize replay.
        "known_mutual": [[int(f), int(m)] for f, m in peer.known_mutual.items()],
        # Bitmaps live as Python ints; the snapshot keeps the original
        # packed-word wire format so existing snapshots stay readable
        # byte-for-byte in both directions.
        "known_bitmap": [
            [int(f), _words_from_int(bm, peer.codec.nbits)]
            for f, bm in peer.known_bitmap.items()
        ],
        # Both derived from the bitmaps (the format predates that).
        "known_bucket": [[int(f), int(b)] for f, b in peer.known_bucket.items()],
        "known_coverage": [[int(f), int(c)] for f, c in peer.known_coverage.items()],
        "lookahead": [
            [int(f), sorted(int(w) for w in links)]
            for f, links in peer.lookahead.items()
        ],
        "behavior": [
            [int(c), int(cma.count), float(cma.value)]
            for c, cma in peer.behavior._cma.items()
        ],
        "table": {
            "predecessor": table.predecessor,
            "successor": table.successor,
            "successors": [int(w) for w in table.successors],
            "long_links": sorted(int(w) for w in table.long_links),
        },
    }


def _restore_peer(peer, data: dict) -> None:
    t = data["table"]
    table = peer.table
    # Going through the property setters / rebinding keeps the cached
    # link_view dirty-flag machinery valid.
    table.predecessor = t["predecessor"]
    table.successor = t["successor"]
    table.successors = [int(w) for w in t["successors"]]
    table.long_links = [int(w) for w in t["long_links"]]
    peer.identifier = float(data["identifier"])
    peer.joined = bool(data["joined"])
    peer.moves_done = int(data["moves_done"])
    peer.stable_rounds = int(data["stable_rounds"])
    peer.link_change_budget = int(data["link_change_budget"])
    pair = data["last_anchor_pair"]
    peer.last_anchor_pair = None if pair is None else tuple(int(a) for a in pair)
    target = data.get("last_anchor_target")
    peer.last_anchor_target = float("nan") if target is None else float(target)
    peer._top2 = [int(f) for f in data["top2"]]
    peer.known_mutual = {int(f): int(m) for f, m in data["known_mutual"]}
    # The edge columns are refilled from the bitmaps and the stored buckets
    # (a missing one is hashed); the stored coverage is a popcount, not read.
    for friend in peer.known_bitmap:
        peer._cache_edge(friend, None)
    peer.known_bitmap = {
        int(f): _int_from_words(words)
        for f, words in data["known_bitmap"]
    }
    buckets = {int(f): int(b) for f, b in data["known_bucket"]}
    for friend, bitmap in peer.known_bitmap.items():
        peer._cache_edge(friend, bitmap, buckets.get(friend, -1))
    peer.lookahead = {
        int(f): frozenset(int(w) for w in links) for f, links in data["lookahead"]
    }
    peer.behavior._cma = {}
    for contact, count, mean in data["behavior"]:
        cma = CumulativeMovingAverage()
        cma._count = int(count)
        cma._mean = float(mean)
        peer.behavior._cma[int(contact)] = cma


def _capture_overlay(overlay) -> dict:
    return {
        "k_links": int(overlay.k_links),
        "config": asdict(overlay.config),
        "built": bool(overlay._built),
        "iterations": int(overlay.iterations),
        "round_link_changes": int(overlay.round_link_changes),
        "quiet_rounds": int(overlay._quiet_rounds),
        "lsh_seed": int(overlay._lsh_seed),
        "ids": [float(x) for x in overlay.ids],
        "pending_ids": [float(x) for x in overlay.pending_ids],
        "joined": [bool(x) for x in overlay.joined],
        "incoming_sources": [
            sorted(int(w) for w in srcs) for srcs in overlay._incoming_sources
        ],
        "upload_mbps": (
            None
            if overlay.upload_mbps is None
            else [float(x) for x in overlay.upload_mbps]
        ),
        "join_events": [
            [int(e.step), int(e.user), None if e.inviter is None else int(e.inviter)]
            for e in overlay.join_events
        ],
        "trace": overlay.trace.to_rows(),
        "peers": [_capture_peer(p) for p in overlay.peers],
    }


def _capture_graph(graph: SocialGraph) -> dict:
    return {
        "name": graph.name,
        "num_nodes": int(graph.num_nodes),
        "edges": [[int(u), int(v)] for u, v in graph.edges()],
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

    Returns ``{"manifest": ..., "state": ...}`` — JSON-safe throughout.
    Optional components are captured when passed; ``sim`` is an opaque
    pre-built dict (the simulator's own resume payload). With
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


def _config_from(data: dict) -> SelectConfig:
    """The snapshotted ``SelectConfig``; rejects keys the class lacks."""
    unknown = sorted(set(data) - {f.name for f in fields(SelectConfig)})
    if unknown:
        raise PersistError(
            f"snapshot config has unknown keys {unknown}: written by a "
            f"different version of SelectConfig"
        )
    return SelectConfig(**data)


def _unpack(snapshot: dict) -> "tuple[dict, dict]":
    if not isinstance(snapshot, dict) or "manifest" not in snapshot or "state" not in snapshot:
        raise PersistError("not a snapshot: expected {'manifest': ..., 'state': ...}")
    manifest = snapshot["manifest"]
    if manifest.get("schema") != SCHEMA:
        raise PersistError(
            f"unsupported snapshot schema {manifest.get('schema')!r} (expected {SCHEMA!r})"
        )
    return manifest, snapshot["state"]


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
    overlay.config = _config_from(data["config"])
    overlay.iterations = int(data["iterations"])
    overlay.round_link_changes = int(data["round_link_changes"])
    overlay._quiet_rounds = int(data["quiet_rounds"])
    overlay._lsh_seed = int(data["lsh_seed"])
    # In place: ids and joined are the overlay's shared column storage
    # (PeerState views alias them); rebinding would silently detach every
    # peer from the restored values.
    overlay.ids[:] = np.asarray(data["ids"], dtype=np.float64)
    overlay.pending_ids[:] = np.asarray(data["pending_ids"], dtype=np.float64)
    overlay.joined[:] = np.asarray(data["joined"], dtype=bool)
    overlay._ring_index.invalidate()
    overlay._incoming_sources = [set(srcs) for srcs in data["incoming_sources"]]
    overlay.incoming_count = np.array(
        [len(s) for s in overlay._incoming_sources], dtype=np.int64
    )
    overlay.upload_mbps = (
        None
        if data["upload_mbps"] is None
        else np.asarray(data["upload_mbps"], dtype=np.float64)
    )
    overlay.join_events = [
        JoinEvent(step=int(s), user=int(u), inviter=None if i is None else int(i))
        for s, u, i in data["join_events"]
    ]
    trace = TraceRecorder()
    for row in data["trace"]:
        trace.record(row["series"], row["round"], row["value"])
    overlay.trace = trace
    # LSH families are derived state: drop the cache and re-anchor each
    # peer to the family its (restored) lsh_seed defines.
    overlay._lsh_families = {}
    for peer, pdata in zip(overlay.peers, data["peers"]):
        peer.lsh_family = overlay.lsh_family_for(peer.node)
        peer.k_buckets = overlay.k_links
        _restore_peer(peer, pdata)
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


def restore(snapshot: dict, graph: "SocialGraph | None" = None):
    """Rebuild a fresh, fully restored overlay from a snapshot.

    The graph is taken from the embedded edge list unless passed
    explicitly (snapshots captured with ``include_graph=False`` need it).
    Component state (faults, stabilizer, ...) is *not* restored here —
    those live objects belong to the caller; use :func:`restore_into`.
    """
    from repro.core.select import SelectOverlay

    manifest, state = _unpack(snapshot)
    if graph is None:
        gdata = state.get("graph")
        if gdata is None:
            raise PersistError(
                "snapshot has no embedded graph (captured with include_graph=False); "
                "pass graph= explicitly"
            )
        graph = SocialGraph(
            int(gdata["num_nodes"]),
            [(int(u), int(v)) for u, v in gdata["edges"]],
            name=gdata["name"],
        )
    data = state["overlay"]
    overlay = SelectOverlay(
        graph,
        k_links=int(data["k_links"]),
        config=_config_from(data["config"]),
    )
    return restore_into(snapshot, overlay)


# -- directory persistence ----------------------------------------------------


def save(snapshot: dict, out_dir: str) -> dict:
    """Write ``manifest.json`` + ``state.json`` into ``out_dir``.

    Both files are written atomically (tmp + fsync + ``os.replace``):
    the state payload lands first, then the manifest that vouches for
    it, so a crash at any instant leaves either the previous snapshot
    intact or a fully consistent new one — never a manifest pointing at
    truncated state.
    """
    manifest, state = _unpack(snapshot)
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, MANIFEST_FILE)
    state_path = os.path.join(out_dir, STATE_FILE)
    atomic_write_json(state_path, state, separators=(",", ":"), sort_keys=True)
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
