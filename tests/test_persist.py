"""Checkpoint/restore + deterministic replay (:mod:`repro.persist`)."""

import copy
import gc
import hashlib
import json
import os
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.config import LSH_SAMPLES, SelectConfig
from repro.core.recovery import RecoveryManager
from repro.core.select import SelectOverlay
from repro.core.stabilize import CatchUpStore, Stabilizer
from repro.graphs.datasets import load_dataset
from repro.graphs.graph import SocialGraph
from repro.lsh.bitsampling import BitSamplingLsh
from repro.net.bandwidth import BandwidthModel
from repro.net.churn import ChurnModel
from repro.net.faults import FaultPlan, PingService, RingPartition
from repro.net.workload import PublishWorkload
from repro.overlay.doctor import check_overlay
from repro.persist import (
    MANIFEST_FILE,
    STATE_FILE,
    capture,
    load,
    restore,
    restore_into,
    save,
    snapshot_id,
)
import repro.persist.snapshot as snapshot_module
from repro.core.columns import EdgeColumns
from repro.validate import main as validate_main
from repro.validate import validate_snapshot as validate_dir
from repro.sim.runner import NotificationSimulator
from repro.util.exceptions import ConfigurationError, PersistError
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import assert_edge_columns_recompute, give_family

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "golden_snapshot")
#: pinned manifest id of the committed fixture: regenerating the same
#: graph (facebook, n=100, seed 11) and build (seed 7) must reproduce
#: this byte-for-byte, or the snapshot format silently drifted.
GOLDEN_ID = "fcad37663e80ecd1"
#: sha256 of the records of ``_stack(small_graph, faulty=True).run(600.0)``.
REPLAY_DIGEST = "8180b41f78ffc3b319903b1f155b2e35bfd3d79d881542b289dd160351a100fd"


@pytest.fixture(scope="module")
def built_1k():
    """The churn benchmark's overlay: facebook 1k, built with seed 7."""
    graph = load_dataset("facebook", num_nodes=1000, seed=7)
    return SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(7)


def fresh_overlay(graph, seed=9):
    return SelectOverlay(graph, config=SelectConfig(max_rounds=25)).build(seed=seed)


def _text(snapshot) -> str:
    """A snapshot's state as its canonical text: held numpy columns and the
    lists ``load`` returns compare alike, and ``1`` differs from ``1.0``."""
    return snapshot_module._canonical(snapshot["state"])


# -- overlay snapshot / restore -----------------------------------------------


class TestOverlayRoundTrip:
    def test_recapture_equals_original(self, built_select):
        snap = built_select.snapshot()
        again = capture(restore(snap))
        assert _text(again) == _text(snap)
        assert again["manifest"]["snapshot_id"] == snap["manifest"]["snapshot_id"]

    def test_link_state_matches_exactly(self, built_select):
        twin = restore(built_select.snapshot())
        for v in range(built_select.graph.num_nodes):
            mine, theirs = built_select.tables[v], twin.tables[v]
            assert theirs.predecessor == mine.predecessor
            assert theirs.successor == mine.successor
            assert list(theirs.successors) == list(mine.successors)
            assert set(theirs.long_links) == set(mine.long_links)
            assert theirs.all_links() == mine.all_links()

    def test_restored_node_ids_are_python_ints(self, built_select):
        # As a build leaves them: numpy scalars would hash and route slower
        # and make the tables unserialisable.
        twin = restore(built_select.snapshot())
        held = [
            *(w for t in twin.tables for w in (*t.long_links, *t.successors)),
            *(w for v in range(twin.graph.num_nodes) for w in twin.admitted(v)),
            *(w for peer in twin.peers for view in peer.lookahead.values() for w in view),
            *(w for pair in twin.cma for w in pair),
        ]
        assert held and {type(w) for w in held} == {int}

    def test_cma_book_rows_keep_first_observation_order(self, built_select):
        twin = restore(built_select.snapshot())
        for observer, contact, online in ((5, 9, True), (2, 7, False), (5, 1, False), (5, 9, False)):
            twin.cma.observe(observer, contact, online)
        snap = capture(twin)
        behavior = snap["state"]["overlay"]["behavior"]
        row = slice(*behavior["indptr"][5:7].tolist())
        assert behavior["values"][row].tolist() == [9, 1]
        assert behavior["count"][row].tolist() == [2, 1]
        assert behavior["mean"][row].tolist() == [0.5, 0.0]
        again = restore(snap)
        assert dict(again.cma) == dict(twin.cma)
        assert _text(capture(again)) == _text(snap)

    def test_restored_overlay_passes_doctor(self, built_select):
        twin = restore(built_select.snapshot())
        report = check_overlay(twin)
        assert report.ok
        assert report.ring_count == 1
        assert report.largest_cycle == built_select.graph.num_nodes

    def test_restore_into_existing_overlay(self, small_graph, built_select):
        target = fresh_overlay(small_graph, seed=3)
        restore_into(built_select.snapshot(), target)
        assert _text(capture(target)) == _text(built_select.snapshot())

    def test_restored_overlay_routes_identically(self, built_select):
        from repro.overlay.routing import GreedyRouter

        twin = restore(built_select.snapshot())
        src, dst = 0, built_select.graph.num_nodes // 2
        mine = GreedyRouter(built_select).route(src, dst)
        theirs = GreedyRouter(twin).route(src, dst)
        assert theirs.delivered == mine.delivered
        assert theirs.path == mine.path

    def test_graph_mismatch_rejected(self, built_select, tiny_graph):
        target = SelectOverlay(tiny_graph, config=SelectConfig(max_rounds=10)).build(seed=1)
        with pytest.raises(PersistError):
            restore_into(built_select.snapshot(), target)

    def test_missing_component_rejected(self, built_select):
        snap = built_select.snapshot()  # captured without a fault plan
        target = restore(snap)
        with pytest.raises(PersistError):
            restore_into(snap, target, faults=FaultPlan.none())

    @pytest.mark.parametrize("key", ["columnar", "num_workers", "invite_spread", "no_such_knob"])
    def test_unknown_config_key_rejected(self, built_select, key):
        # Fields that snapshots written before their removal still carry:
        # "columnar" (the object round), "num_workers" / "shards" (the
        # sharded build), "invite_spread" (never read).
        snap = built_select.snapshot()
        snap["state"]["overlay"]["config"][key] = True
        with pytest.raises(PersistError, match=key):
            restore(snap)
        target = restore(built_select.snapshot())
        with pytest.raises(PersistError, match=key):
            restore_into(snap, target)

    def test_fault_param_mismatch_rejected(self, small_graph):
        overlay = fresh_overlay(small_graph)
        snap = capture(overlay, faults=FaultPlan(loss_rate=0.1, seed=1))
        with pytest.raises(PersistError):
            restore_into(snap, overlay, faults=FaultPlan(loss_rate=0.2, seed=1))


# -- disk format --------------------------------------------------------------


class TestDiskFormat:
    def test_a_held_snapshot_keeps_no_state_text(self, built_select, tmp_path):
        # The id hashes the canonical text, which capture drops; save
        # encodes the state it is given, and that text is what the id names.
        snap = capture(built_select)
        assert type(snap) is dict

        def strings(obj):
            if isinstance(obj, str):
                yield obj
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    yield key
                    yield from strings(value)
            elif isinstance(obj, (list, tuple)):
                for value in obj:
                    yield from strings(value)

        text = _text(snap)
        assert max(map(len, strings(snap))) < len(text) // 10
        save(snap, str(tmp_path / "snap"))
        with open(tmp_path / "snap" / STATE_FILE, encoding="utf-8") as fh:
            written = fh.read()
        assert written == text + "\n"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == snap["manifest"]["snapshot_id"]
        assert load(str(tmp_path / "snap"))["manifest"] == snap["manifest"]

    @given(
        rows=st.lists(st.sets(st.integers(0, 9), max_size=4), min_size=1, max_size=10),
        picks=st.lists(st.integers(-1, 9), max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_views_are_distinct_contents_in_slot_order(self, rows, picks):
        # What capture stores of the link log, against one set per slot.
        edges = EdgeColumns(len(picks))
        for row in rows:
            edges.append(np.zeros(len(row), dtype=np.int64), np.array(sorted(row), dtype=np.int64), 1)
        edges.view[:] = [-1 if p < 0 else p % len(rows) for p in picks]
        views: dict = {}
        want = [-1 if r < 0 else views.setdefault(frozenset(edges.row(r)), len(views)) for r in edges.view.tolist()]
        view, csr = snapshot_module._views(edges)
        rows = [sorted(v) for v in views]
        want_csr = {"indptr": np.cumsum([0, *map(len, rows)]), "values": sum(rows, [])}
        canonical = snapshot_module._canonical
        assert canonical([view, csr]) == canonical([want, want_csr])

    def test_save_load_round_trip(self, built_select, tmp_path):
        snap = built_select.snapshot()
        out = str(tmp_path / "snap")
        save(snap, out)
        assert os.path.isfile(os.path.join(out, MANIFEST_FILE))
        assert os.path.isfile(os.path.join(out, STATE_FILE))
        loaded = load(out)
        assert loaded["manifest"] == snap["manifest"]
        assert _text(loaded) == _text(snap)

    def test_wide_bitmap_round_trips(self, tmp_path):
        # A hub of 20 000 friends: its bitmap is a 6 021-digit decimal, past
        # the int/str limit Python >= 3.11 enforces, so it is stored as hex.
        hub = SocialGraph(20_001, [(0, v) for v in range(1, 20_001)], name="star")
        overlay = SelectOverlay(hub, k_links=4)
        peer = overlay.peers[0]
        give_family(peer, BitSamplingLsh(len(peer.neighborhood), LSH_SAMPLES, seed=overlay._lsh_seed))
        bitmap = (1 << 19_999) | 0b1011
        peer.learn_exchange(7, 0, bitmap, {0})
        if hasattr(sys, "get_int_max_str_digits"):
            with pytest.raises(ValueError):
                json.dumps(bitmap)
        out = str(tmp_path / "snap")
        save(capture(overlay), out)
        twin = restore(load(out))
        assert twin.peers[0].known_bitmap == {7: bitmap}
        assert twin.peers[0].lookahead == {7: frozenset({0})}
        assert_edge_columns_recompute(twin.peers[:1])

    def test_oversized_bitmap_rejected(self, built_select, tmp_path):
        # A bitmap has one bit per friend of its owner: one bit more is refused.
        # A held snapshot's bitmaps are the overlay's ints, so the edit is one.
        snap = copy.deepcopy(built_select.snapshot())
        edges = snap["state"]["overlay"]["edges"]
        slot = next(i for i, b in enumerate(edges["bitmap"]) if b is not None)
        owner = int(np.searchsorted(built_select._nbr_indptr, slot, side="right")) - 1
        edges["bitmap"][slot] = 1 << built_select.graph.degree(owner)
        with pytest.raises(PersistError, match=f"edge slot {slot} holds a bitmap wider"):
            restore(snap)
        snap["manifest"]["snapshot_id"] = snapshot_id(snap["state"])
        out = str(tmp_path / "snap")
        save(snap, out)
        assert any("bitmap wider than its owner's degree" in e for e in validate_dir(out))

    def test_held_and_loaded_bitmaps_restore_alike(self):
        # Decode reads a held column of ints and the text's hex strings.
        loaded = load(GOLDEN_DIR)
        held = capture(restore(loaded))
        assert isinstance(held["state"]["overlay"]["edges"]["bitmap"], np.ndarray)
        assert isinstance(loaded["state"]["overlay"]["edges"]["bitmap"], list)
        assert _text(capture(restore(held))) == _text(capture(restore(loaded))) == _text(loaded)

    def test_a_hex_string_in_a_held_column_is_refused(self):
        # As an int in the text's list is (test_validate.py's _integer_bitmap).
        held = capture(restore(load(GOLDEN_DIR)))
        bitmaps = held["state"]["overlay"]["edges"]["bitmap"]
        slot = next(i for i, b in enumerate(bitmaps) if b is not None)
        bitmaps[slot] = format(bitmaps[slot], "x")
        with pytest.raises(PersistError, match="malformed overlay block"):
            restore(held)

    def test_v1_directory_is_refused(self, tmp_path):
        # No v1 reader is kept: both load and validate name the two schemas.
        out = str(tmp_path / "snap")
        save(load(GOLDEN_DIR), out)
        manifest_path = os.path.join(out, MANIFEST_FILE)
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["schema"] = "select-repro/snapshot/v1"
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(PersistError) as refused:
            load(out)
        for said in (str(refused.value), "\n".join(validate_dir(out))):
            assert "select-repro/snapshot/v1" in said and "select-repro/snapshot/v2" in said

    def test_load_detects_tampered_state(self, built_select, tmp_path):
        out = str(tmp_path / "snap")
        save(built_select.snapshot(), out)
        state_path = os.path.join(out, STATE_FILE)
        with open(state_path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
        state["overlay"]["iterations"] += 1
        with open(state_path, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        with pytest.raises(PersistError):
            load(out)


class TestValidator:
    def test_valid_snapshot_dir(self, built_select, tmp_path):
        out = str(tmp_path / "snap")
        save(built_select.snapshot(), out)
        assert validate_dir(out) == []
        assert validate_main([out]) == 0

    def test_digest_mismatch_reported(self, built_select, tmp_path):
        out = str(tmp_path / "snap")
        save(built_select.snapshot(), out)
        state_path = os.path.join(out, STATE_FILE)
        with open(state_path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
        state["overlay"]["iterations"] += 1
        with open(state_path, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        errors = validate_dir(out)
        assert any("snapshot_id" in e or "digest" in e for e in errors)
        assert validate_main([out]) == 1

    def test_missing_files_reported(self, tmp_path):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        errors = validate_dir(empty)
        assert errors
        assert validate_dir(str(tmp_path / "nowhere"))

    def test_usage_exits_2(self):
        assert validate_main([]) == 2


# -- golden fixture -----------------------------------------------------------


class TestGoldenSnapshot:
    """The committed 100-node fixture is a format-drift tripwire."""

    def test_fixture_restores_and_passes_doctor(self):
        snap = load(GOLDEN_DIR)
        assert snap["manifest"]["snapshot_id"] == GOLDEN_ID
        overlay = restore(snap)
        report = check_overlay(overlay)
        assert report.ok
        assert report.ring_count == 1
        assert report.largest_cycle == 100
        assert report.max_in_degree <= report.in_degree_cap

    def test_recapture_reproduces_fixture_exactly(self):
        snap = load(GOLDEN_DIR)
        again = capture(restore(snap))
        assert _text(again) == _text(snap)
        assert again["manifest"]["snapshot_id"] == GOLDEN_ID


class TestSnapshotIdIsTheTextHash:
    """``snapshot_id`` feeds the canonical text to sha256 in pieces; the
    sha256 of the whole text is its reference."""

    @staticmethod
    def reference(state) -> str:
        return hashlib.sha256(snapshot_module._canonical(state).encode("utf-8")).hexdigest()[:16]

    def test_golden_state_loaded_and_held(self):
        loaded = load(GOLDEN_DIR)["state"]
        held = capture(restore(load(GOLDEN_DIR)))["state"]
        for state in (loaded, held):
            assert snapshot_id(state) == self.reference(state) == GOLDEN_ID

    def test_two_dimensional_arrays_and_lists_past_a_chunk(self, built_select):
        chunk = snapshot_module._CHUNK
        state = capture(built_select)["state"]
        state["extra"] = {
            "grid": np.arange(6 * chunk + 3, dtype=np.int32).reshape(-1, 3),
            "floats": np.linspace(0.0, 1.0, chunk + 5),
            "empty": np.zeros((0, 2)),
            "rows": [[i, None, {"b": 1.5, "a": "é"}] for i in range(2 * chunk + 1)],
            "arrays": tuple(np.arange(i % 3) for i in range(chunk + 1)),
            "exact": list(range(chunk)),
            "int keys": {2: [np.arange(2)], 1: "one"},
        }
        assert snapshot_id(state) == self.reference(state)


# -- deterministic replay -----------------------------------------------------


def _stack(graph, faulty, **sim_kwargs):
    """A full simulation stack (overlay + faults + repair + catch-up)."""
    n = graph.num_nodes
    overlay = fresh_overlay(graph)
    if faulty:
        median = float(np.median(overlay.ids))
        plan = FaultPlan(
            loss_rate=0.1,
            ping_false_negative=0.2,
            ping_false_positive=0.05,
            graceful_fraction=0.3,
            partitions=[RingPartition(cut=(median, 0.999), start=120.0, end=300.0)],
            seed=43,
        )
    else:
        plan = FaultPlan.none()
    pings = PingService(faults=plan)
    stabilizer = Stabilizer(overlay, ping_service=pings)
    catchup = CatchUpStore(overlay, faults=plan)
    recovery = RecoveryManager(overlay, ping_service=pings, stabilizer=stabilizer)
    return NotificationSimulator(
        overlay,
        PublishWorkload(n, mean_rate=0.002, seed=4),
        churn=ChurnModel(n, seed=5),
        repair=recovery.tick,
        maintenance_period=30.0,
        faults=plan,
        catchup=catchup,
        **sim_kwargs,
    )


def _run_fields(sim, report):
    """The report plus every component's totals: what a replay must reproduce."""
    manager = sim.repair.__self__
    return {
        "records": [asdict(r) for r in report.records],
        "maintenance_ticks": report.maintenance_ticks,
        "partition_heal_times": report.partition_heal_times,
        "catchup_recovered": report.catchup_recovered,
        "faults": sim.faults.stats.as_dict(),
        "recovery": manager.stats.as_dict(),
        "stabilizer": manager.stabilizer.stats.as_dict(),
        "catchup": sim.catchup.stats.as_dict(),
    }


def _records_digest(report):
    blob = json.dumps([asdict(r) for r in report.records], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestDeterministicReplay:
    def test_same_seed_runs_are_field_identical(self, small_graph):
        sims = [_stack(small_graph, faulty=True) for _ in range(2)]
        first, second = (_run_fields(sim, sim.run(600.0)) for sim in sims)
        assert first == second

    @pytest.mark.parametrize("faulty", [False, True])
    def test_resumed_run_matches_uninterrupted(self, small_graph, tmp_path, faulty):
        ckpt_dir = str(tmp_path / "ckpt")
        full = _stack(small_graph, faulty, snapshot_every=10, snapshot_dir=ckpt_dir)
        uninterrupted = full.run(600.0)
        # horizon 600 / period 30 -> 19 ticks; checkpoint lands at tick 10.
        snap_path = os.path.join(ckpt_dir, "tick-00010")
        assert os.path.isdir(snap_path)
        assert validate_dir(snap_path) == []

        resumed_sim = _stack(small_graph, faulty, resume_from=snap_path)
        resumed = resumed_sim.run(600.0)
        assert _run_fields(resumed_sim, resumed) == _run_fields(full, uninterrupted)
        if faulty:
            # The lossy churn run, either way; re-recorded when admitted
            # links began to carry routes both ways.
            assert _records_digest(resumed) == _records_digest(uninterrupted) == REPLAY_DIGEST

    def test_ping_state_has_a_total_order_and_restores_from_any(self, small_graph):
        full = _stack(small_graph, faulty=True, snapshot_every=10)
        uninterrupted = full.run(600.0)
        snap = copy.deepcopy(full.snapshots[0])
        for component in ("recovery", "stabilizer"):
            triples = snap["state"][component]["pings"]["suspicion"]
            assert triples and triples == sorted(triples)
            triples.reverse()
        # A checkpoint written before the simulator lost its recorder option
        # and its report stopped mirroring component stats.
        snap["state"]["sim"]["recorder"] = None
        snap["state"]["sim"]["baselines"] = {
            "false_evictions": 0,
            "stabilize_rounds": 0,
            "catchup": CatchUpStore(full.overlay).stats.as_dict(),
        }
        resumed_sim = _stack(small_graph, faulty=True, resume_from=snap)
        resumed = resumed_sim.run(600.0)
        assert _run_fields(resumed_sim, resumed) == _run_fields(full, uninterrupted)

    def test_snapshots_accumulate_in_memory(self, small_graph):
        sim = _stack(small_graph, faulty=False, snapshot_every=5)
        sim.run(600.0)
        assert len(sim.snapshots) == 3  # ticks 5, 10, 15 of 19
        rounds = [s["manifest"]["round"] for s in sim.snapshots]
        assert rounds == sorted(rounds)
        assert all("sim" in s["state"] for s in sim.snapshots)

    def test_resume_requires_sim_state(self, built_select, small_graph):
        sim = _stack(small_graph, faulty=False, resume_from=built_select.snapshot())
        with pytest.raises(PersistError):
            sim.run(600.0)

    def test_resume_requires_matching_horizon(self, small_graph):
        source = _stack(small_graph, faulty=False, snapshot_every=10)
        source.run(600.0)
        sim = _stack(small_graph, faulty=False, resume_from=source.snapshots[0])
        with pytest.raises(PersistError):
            sim.run(900.0)

    def test_invalid_snapshot_every_rejected(self, built_select):
        workload = PublishWorkload(built_select.graph.num_nodes, mean_rate=0.002, seed=4)
        with pytest.raises(ConfigurationError):
            NotificationSimulator(built_select, workload, snapshot_every=0)


# -- held snapshots -------------------------------------------------------------


class TestHeldSnapshot:
    """A snapshot held in memory is numpy copies of the overlay's columns:
    nothing the overlay writes after capture, or after a restore, reaches it."""

    def test_a_capture_owns_its_arrays(self, small_graph):
        bandwidth = BandwidthModel(small_graph.num_nodes, seed=1)
        overlay = SelectOverlay(
            small_graph, config=SelectConfig(max_rounds=25), bandwidth=bandwidth
        ).build(seed=9)
        snap = capture(overlay)
        ids, upload = overlay.ids.copy(), overlay.upload_mbps.copy()
        links = [t.all_links() for t in overlay.tables]
        cols, edges = overlay.columns, overlay.edge_columns
        for column in (
            overlay.ids,
            overlay.pending_ids,
            overlay.upload_mbps,
            overlay.ring_pred,
            overlay.ring_succ,
            edges.targets,
            *(getattr(cols, name) for name in snapshot_module._PEER_COLUMNS + ("anchor_target",)),
            *(getattr(edges, name) for name in snapshot_module._EDGE_COLUMNS + ("view",)),
        ):
            column[...] = 1
        table = next(t for t in overlay.tables if t.long_links)
        table.drop_long(min(table.long_links))
        assert snapshot_id(snap["state"]) == snap["manifest"]["snapshot_id"]
        restore_into(snap, overlay)
        assert np.array_equal(overlay.ids, ids) and np.array_equal(overlay.upload_mbps, upload)
        assert [t.all_links() for t in overlay.tables] == links
        # The restored columns are the overlay's own, not the snapshot's.
        overlay.upload_mbps[:] = 2.0
        assert snapshot_id(snap["state"]) == snap["manifest"]["snapshot_id"]

    def test_one_snapshot_restores_alike_twice(self, small_graph):
        # The churn benchmark's pattern: restore, run, restore again.
        first = _stack(small_graph, faulty=True)
        snap = capture(first.overlay)
        want = _text(snap)
        first.run(600.0)  # lossy churn repair writes tables, rings and CMAs
        assert _text(capture(first.overlay)) != want
        restore_into(snap, first.overlay)
        assert _text(capture(first.overlay)) == want
        second = _stack(small_graph, faulty=True)  # a build between
        for _ in range(2):
            restore_into(snap, second.overlay)
            assert _text(capture(second.overlay)) == want
            second.overlay.ids[:] = 0.5
            second.overlay.ring_pred[:] = -1
        second.run(600.0)
        restore_into(snap, second.overlay)
        assert _text(capture(second.overlay)) == want
        assert snapshot_id(snap["state"]) == snap["manifest"]["snapshot_id"]

    def test_a_held_1k_snapshot_is_small(self, built_1k):
        # Numpy columns, the overlay's own bitmap ints and no canonical text
        # hold about 1.5 KiB a peer; with a hex string per slot 2.4, with
        # the text kept beside them 3.8, as lists of Python ints 9.8.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            snap = built_1k.snapshot()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert snap["manifest"]["snapshot_id"] == "89dc685e361f1933"
        assert held / 1024 / built_1k.graph.num_nodes <= 1.85, held

    def test_a_capture_holds_the_overlays_own_bitmaps(self, built_1k):
        snap = capture(built_1k)
        held = snap["state"]["overlay"]["edges"]["bitmap"]
        bitmaps = built_1k.edge_columns.bitmap
        assert held is not bitmaps and any(b is not None for b in held)
        assert all(h is b for h, b in zip(held.tolist(), bitmaps.tolist()))

    def test_a_restore_allocates_little_beyond_what_it_installs(self, built_1k):
        # Integer columns are checked in their own dtype, bitmap widths
        # without per-slot lists, the views installed as the link log and
        # the graph hashed in pieces: 1.2 MiB above the start at 1k/7, where
        # int64 copies, a re-sort of the views and the whole edge text
        # took 4.1.
        snap = capture(built_1k)
        target = SelectOverlay(built_1k.graph)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            restore_into(snap, target)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert _text(capture(target)) == _text(snap)
        assert peak / 2**20 <= 1.5, peak

    def test_save_writes_the_canonical_text_in_pieces(self, tmp_path):
        graph = load_dataset("facebook", num_nodes=2000, seed=7)
        built = capture(SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(7))
        assert built["manifest"]["snapshot_id"] == "cda44202667c0e8a"
        for name, snap in (("golden", load(GOLDEN_DIR)), ("2k", built)):
            save(snap, str(tmp_path / name))
            with open(tmp_path / name / STATE_FILE, encoding="utf-8") as fh:
                assert fh.read() == snapshot_module._canonical(snap["state"]) + "\n", name
