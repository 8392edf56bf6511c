"""Checkpoint/restore + deterministic replay (:mod:`repro.persist`)."""

import copy
import hashlib
import json
import os
import random
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.config import SelectConfig
from repro.core.recovery import RecoveryManager
from repro.core.select import SelectOverlay
from repro.core.stabilize import CatchUpStore, Stabilizer
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
)
from repro.persist.snapshot import _int_from_words, _words_from_int
from repro.validate import main as validate_main
from repro.validate import validate_snapshot as validate_dir
from repro.sim.runner import NotificationSimulator
from repro.util.exceptions import ConfigurationError, PersistError

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "golden_snapshot")
#: pinned manifest id of the committed fixture: regenerating the same
#: graph (facebook, n=100, seed 11) and build (seed 7) must reproduce
#: this byte-for-byte, or the snapshot format silently drifted.
GOLDEN_ID = "fface5de2c7c5b13"
#: sha256 of the records of ``_stack(small_graph, faulty=True).run(600.0)``.
REPLAY_DIGEST = "eeba6f1e5c67fdf5e535abf609ffde62c5ac0b969d66c2e65f42f0d306355cf2"
#: sha256[:16] of the ``[nbits, words]`` list that
#: :meth:`TestDiskFormat.test_bitmap_words_are_pinned` draws: v1 stores a
#: bitmap int as little-endian 64-bit words, at least one per bitmap.
BITMAP_WORDS_DIGEST = "c0cace6b78f9947e"


def fresh_overlay(graph, seed=9):
    return SelectOverlay(graph, config=SelectConfig(max_rounds=25)).build(seed=seed)


# -- overlay snapshot / restore -----------------------------------------------


class TestOverlayRoundTrip:
    def test_recapture_equals_original(self, built_select):
        snap = built_select.snapshot()
        again = capture(restore(snap))
        assert again["state"] == snap["state"]
        assert again["manifest"]["snapshot_id"] == snap["manifest"]["snapshot_id"]

    def test_link_state_matches_exactly(self, built_select):
        twin = restore(built_select.snapshot())
        for v in range(built_select.graph.num_nodes):
            mine, theirs = built_select.tables[v], twin.tables[v]
            assert theirs.predecessor == mine.predecessor
            assert theirs.successor == mine.successor
            assert list(theirs.successors) == list(mine.successors)
            assert set(theirs.long_links) == set(mine.long_links)
            assert theirs.link_view() == mine.link_view()

    def test_restored_overlay_passes_doctor(self, built_select):
        twin = restore(built_select.snapshot())
        report = check_overlay(twin)
        assert report.ok
        assert report.ring_count == 1
        assert report.largest_cycle == built_select.graph.num_nodes

    def test_restore_into_existing_overlay(self, small_graph, built_select):
        target = fresh_overlay(small_graph, seed=3)
        restore_into(built_select.snapshot(), target)
        assert capture(target)["state"] == built_select.snapshot()["state"]

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
    def test_save_load_round_trip(self, built_select, tmp_path):
        snap = built_select.snapshot()
        out = str(tmp_path / "snap")
        save(snap, out)
        assert os.path.isfile(os.path.join(out, MANIFEST_FILE))
        assert os.path.isfile(os.path.join(out, STATE_FILE))
        loaded = load(out)
        assert loaded["manifest"] == snap["manifest"]
        assert loaded["state"] == snap["state"]

    def test_bitmap_words_are_pinned(self):
        rng = random.Random(30)
        rows = []
        for nbits in (0, 1, 63, 64, 65, 200):
            for _ in range(50):
                bitmap = rng.getrandbits(nbits) if nbits else 0
                words = _words_from_int(bitmap, nbits)
                assert _int_from_words(words) == bitmap
                rows.append([nbits, words])
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
        assert digest == BITMAP_WORDS_DIGEST

    def test_oversized_bitmap_rejected(self):
        with pytest.raises(PersistError):
            _words_from_int(1 << 64, 64)

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
        assert again["state"] == snap["state"]
        assert again["manifest"]["snapshot_id"] == GOLDEN_ID


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
