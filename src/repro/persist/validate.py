"""Schema checks for a snapshot directory (CI gate).

``python -m repro.persist.validate DIR`` exits non-zero when the
directory violates the ``select-repro/snapshot/v1`` contract:
``manifest.json`` must carry the schema tag, a snapshot id matching the
state payload's content digest, the graph fingerprint block, and a
component inventory consistent with ``state.json``; the state payload's
overlay section must be structurally sound (per-peer records aligned
with the graph size). No external schema library — the container
deliberately stays on the standard toolchain — so checks are explicit.
"""

from __future__ import annotations

import json
import os
import sys

from repro.persist.snapshot import MANIFEST_FILE, SCHEMA, STATE_FILE, snapshot_id

__all__ = ["validate_dir", "main"]

_MANIFEST_KEYS = ("schema", "snapshot_id", "round", "config", "graph", "components")
_GRAPH_KEYS = ("name", "num_nodes", "num_edges", "fingerprint")
_OVERLAY_KEYS = (
    "k_links",
    "config",
    "built",
    "iterations",
    "ids",
    "pending_ids",
    "joined",
    "incoming_sources",
    "peers",
)
_PEER_KEYS = (
    "node",
    "identifier",
    "joined",
    "known_mutual",
    "known_bitmap",
    "lookahead",
    "behavior",
    "table",
)
_TABLE_KEYS = ("predecessor", "successor", "successors", "long_links")


def _load_json(path: str, label: str, errors: list[str]):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"{label}: unreadable ({exc})")
        return None


def _check_manifest(manifest, errors: list[str]) -> None:
    if not isinstance(manifest, dict):
        errors.append(f"{MANIFEST_FILE}: expected an object")
        return
    for key in _MANIFEST_KEYS:
        if key not in manifest:
            errors.append(f"{MANIFEST_FILE}: missing key {key!r}")
    if manifest.get("schema") != SCHEMA:
        errors.append(
            f"{MANIFEST_FILE}: missing/unknown schema tag {manifest.get('schema')!r}"
        )
    graph = manifest.get("graph")
    if not isinstance(graph, dict):
        errors.append(f"{MANIFEST_FILE}: 'graph' must be an object")
    else:
        for key in _GRAPH_KEYS:
            if key not in graph:
                errors.append(f"{MANIFEST_FILE}: graph block missing {key!r}")
    if not isinstance(manifest.get("components"), list):
        errors.append(f"{MANIFEST_FILE}: 'components' must be a list")
    if not isinstance(manifest.get("round"), int):
        errors.append(f"{MANIFEST_FILE}: 'round' must be an integer")


def _check_state(manifest, state, errors: list[str]) -> None:
    if not isinstance(state, dict):
        errors.append(f"{STATE_FILE}: expected an object")
        return
    if isinstance(manifest, dict):
        want_id = manifest.get("snapshot_id")
        got_id = snapshot_id(state)
        if want_id != got_id:
            errors.append(
                f"{STATE_FILE}: content digest {got_id} != manifest snapshot_id {want_id}"
            )
        components = manifest.get("components")
        if isinstance(components, list) and sorted(state) != sorted(components):
            errors.append(
                f"{MANIFEST_FILE}: components {sorted(components)} != "
                f"state sections {sorted(state)}"
            )
    overlay = state.get("overlay")
    if not isinstance(overlay, dict):
        errors.append(f"{STATE_FILE}: missing 'overlay' section")
        return
    for key in _OVERLAY_KEYS:
        if key not in overlay:
            errors.append(f"{STATE_FILE}: overlay missing key {key!r}")
    peers = overlay.get("peers")
    ids = overlay.get("ids")
    if not isinstance(peers, list) or not isinstance(ids, list):
        errors.append(f"{STATE_FILE}: overlay.peers and overlay.ids must be lists")
        return
    n = len(ids)
    if len(peers) != n:
        errors.append(f"{STATE_FILE}: {len(peers)} peer records for {n} ids")
    if isinstance(manifest, dict) and isinstance(manifest.get("graph"), dict):
        want_n = manifest["graph"].get("num_nodes")
        if isinstance(want_n, int) and want_n != n:
            errors.append(
                f"{STATE_FILE}: overlay has {n} peers, manifest graph says {want_n}"
            )
    for i, peer in enumerate(peers):
        if not isinstance(peer, dict):
            errors.append(f"{STATE_FILE}: peers[{i}] is not an object")
            continue
        missing = [k for k in _PEER_KEYS if k not in peer]
        if missing:
            errors.append(f"{STATE_FILE}: peers[{i}] missing keys {missing}")
            continue
        if peer.get("node") != i:
            errors.append(f"{STATE_FILE}: peers[{i}] has node={peer.get('node')}")
        table = peer.get("table")
        if not isinstance(table, dict) or any(k not in table for k in _TABLE_KEYS):
            errors.append(f"{STATE_FILE}: peers[{i}].table malformed")


def validate_dir(snapshot_dir: str) -> list[str]:
    """All schema violations found in ``snapshot_dir`` (empty = valid)."""
    if not os.path.isdir(snapshot_dir):
        return [f"{snapshot_dir!r} is not a directory"]
    errors: list[str] = []
    manifest_path = os.path.join(snapshot_dir, MANIFEST_FILE)
    state_path = os.path.join(snapshot_dir, STATE_FILE)
    manifest = state = None
    if not os.path.isfile(manifest_path):
        errors.append(f"missing {MANIFEST_FILE}")
    else:
        manifest = _load_json(manifest_path, MANIFEST_FILE, errors)
    if not os.path.isfile(state_path):
        errors.append(f"missing {STATE_FILE}")
    else:
        state = _load_json(state_path, STATE_FILE, errors)
    if manifest is not None:
        _check_manifest(manifest, errors)
    if state is not None:
        _check_state(manifest, state, errors)
    return errors


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.persist.validate DIR", file=sys.stderr)
        return 2
    errors = validate_dir(argv[0])
    if errors:
        for err in errors:
            print(f"SCHEMA ERROR: {err}", file=sys.stderr)
        return 1
    print(f"{argv[0]}: snapshot schema OK")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
