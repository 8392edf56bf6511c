"""Ring-sharded multiprocess construction (:mod:`repro.shard`).

The contract under test: a sharded build is a pure *execution* layer —
for a fixed shard count, identifiers, link sets, and routed paths are
bit-identical at any worker count, across checkpoint/restore, across
worker crashes, and across rebalancing onto a different worker count.
"""

import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SelectConfig
from repro.core.select import SelectOverlay
from repro.overlay.doctor import check_overlay
from repro.overlay.routing import GreedyRouter
from repro.persist.snapshot import _capture_peer
from repro.persist.validate import validate_dir
from repro.shard.plan import ShardPlan
from repro.shard.snapshot import (
    latest_generation,
    load_arc,
    load_build,
    restore_arc,
    restore_build_state,
)
from repro.telemetry.registry import MetricsRegistry
from repro.util.exceptions import ConfigurationError, ShardError

MAX_ROUNDS = 18

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, width=64)


def sharded_build(graph, workers, shards=4, seed=5, **shard_opts):
    config = SelectConfig(max_rounds=MAX_ROUNDS, num_workers=workers, shards=shards)
    overlay = SelectOverlay(graph, config=config)
    if shard_opts:
        overlay.shard_opts = shard_opts
    overlay.build(seed=seed)
    return overlay


def link_sets(overlay):
    return [sorted(int(w) for w in t.long_links) for t in overlay.tables]


def routed_paths(overlay, routes=60, seed=3):
    rng = np.random.default_rng(seed)
    n = overlay.graph.num_nodes
    pairs = [(int(s), int(d)) for s, d in zip(rng.integers(n, size=routes), rng.integers(n, size=routes))]
    return [(r.path, r.delivered) for r in GreedyRouter(overlay, lookahead=True).route_many(pairs)]


# -- ShardPlan properties (hypothesis) ----------------------------------------


class TestShardPlanProperties:
    @given(st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_arcs_partition_every_vertex(self, data):
        """Arcs are non-overlapping and jointly cover every vertex."""
        ids = np.asarray(data.draw(st.lists(unit, unique=True, min_size=1, max_size=50)))
        shards = data.draw(st.integers(min_value=1, max_value=len(ids)))
        plan = ShardPlan.from_ids(ids, shards)
        plan.validate(ids)
        seen: list[int] = []
        for s in range(shards):
            arc = plan.shard_vertices(s)
            assert len(arc) >= 1
            seen.extend(int(v) for v in arc)
            for v in arc:
                assert plan.shard_of_vertex(int(v)) == s
        assert sorted(seen) == list(range(len(ids)))

    @given(st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_arcs_contiguous_clockwise(self, data):
        """Each arc is a contiguous clockwise run of the sorted ring."""
        ids = np.asarray(data.draw(st.lists(unit, unique=True, min_size=2, max_size=50)))
        shards = data.draw(st.integers(min_value=1, max_value=len(ids)))
        plan = ShardPlan.from_ids(ids, shards)
        ring = sorted(range(len(ids)), key=lambda v: (ids[v], v))
        offset = 0
        for s in range(shards):
            arc = [int(v) for v in plan.shard_vertices(s)]
            assert arc == ring[offset : offset + len(arc)]
            offset += len(arc)
        assert (np.diff(plan.boundaries) >= 0).all()

    @given(st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_every_point_maps_to_exactly_one_arc(self, data):
        """The arcs tile [0, 1): any ring position lands in exactly one,
        including points past the last boundary or before the first
        (the seam-wrapping arc)."""
        ids = np.asarray(data.draw(st.lists(unit, unique=True, min_size=1, max_size=40)))
        shards = data.draw(st.integers(min_value=1, max_value=len(ids)))
        points = data.draw(st.lists(unit, min_size=1, max_size=20))
        plan = ShardPlan.from_ids(ids, shards)
        b = plan.boundaries
        for x in points:
            containing = set()
            for s in range(shards):
                lo = b[s]
                if s + 1 < shards:
                    if lo <= x < b[s + 1]:
                        containing.add(s)
                elif x >= lo or x < b[0]:
                    containing.add(s)
            assert containing == {plan.shard_of_point(x)}

    @given(st.data())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_worker_masks_partition_vertices(self, data):
        """Round-robin worker ownership is disjoint and complete."""
        ids = np.asarray(data.draw(st.lists(unit, unique=True, min_size=2, max_size=40)))
        shards = data.draw(st.integers(min_value=1, max_value=len(ids)))
        workers = data.draw(st.integers(min_value=1, max_value=shards))
        plan = ShardPlan.from_ids(ids, shards)
        cover = np.zeros(len(ids), dtype=int)
        for w in range(workers):
            cover += plan.worker_mask(w, workers).astype(int)
        assert (cover == 1).all()

    def test_seam_wrap_owned_by_last_arc(self):
        ids = np.asarray([0.1, 0.3, 0.5, 0.7, 0.9])
        plan = ShardPlan.from_ids(ids, 2)
        last = plan.num_shards - 1
        assert plan.shard_of_point(0.95) == last
        assert plan.shard_of_point(0.0) == last
        assert plan.shard_of_point(float(plan.boundaries[0])) == 0

    def test_validate_rejects_non_permutation(self):
        ids = np.linspace(0.0, 0.9, 10)
        plan = ShardPlan.from_ids(ids, 2)
        plan.order[1] = plan.order[0]
        with pytest.raises(ShardError, match="not a permutation"):
            plan.validate()

    def test_validate_rejects_disordered_boundaries(self):
        ids = np.linspace(0.0, 0.9, 10)
        plan = ShardPlan.from_ids(ids, 3)
        plan.boundaries = plan.boundaries[::-1].copy()
        with pytest.raises(ShardError, match="clockwise"):
            plan.validate()

    def test_validate_rejects_stale_ring(self):
        ids = np.linspace(0.0, 0.9, 10)
        plan = ShardPlan.from_ids(ids, 2)
        moved = ids.copy()
        moved[0], moved[-1] = moved[-1], moved[0]
        with pytest.raises(ShardError, match="live"):
            plan.validate(moved)

    def test_from_ids_bounds(self):
        ids = np.linspace(0.0, 0.9, 5)
        with pytest.raises(ShardError, match=">= 1"):
            ShardPlan.from_ids(ids, 0)
        with pytest.raises(ShardError, match="at least one vertex"):
            ShardPlan.from_ids(ids, 6)

    def test_dict_roundtrip(self):
        ids = np.linspace(0.0, 0.9, 12)
        plan = ShardPlan.from_ids(ids, 3)
        clone = ShardPlan.from_dict(plan.to_dict())
        assert np.array_equal(clone.order, plan.order)
        assert np.array_equal(clone.boundaries, plan.boundaries)
        assert np.array_equal(clone.vertex_shard, plan.vertex_shard)


# -- configuration validation --------------------------------------------------


class TestShardConfigValidation:
    @pytest.mark.parametrize("workers", [0, -1, True, 1.5, "2"])
    def test_invalid_num_workers(self, workers):
        with pytest.raises(ConfigurationError, match="num_workers"):
            SelectConfig(num_workers=workers)

    @pytest.mark.parametrize("shards", [0, -3, True, 2.5])
    def test_invalid_shards(self, shards):
        with pytest.raises(ConfigurationError, match="shards"):
            SelectConfig(shards=shards)

    def test_fewer_shards_than_workers(self):
        with pytest.raises(ConfigurationError, match="every worker needs at least one arc"):
            SelectConfig(num_workers=4, shards=2)

    def test_sharding_requires_lsh(self):
        with pytest.raises(ConfigurationError, match="use_lsh"):
            SelectConfig(num_workers=2, use_lsh=False)

    def test_more_workers_than_nodes(self, tiny_graph):
        overlay = SelectOverlay(tiny_graph, config=SelectConfig(num_workers=50))
        with pytest.raises(ConfigurationError, match="num_workers"):
            overlay.build(seed=1)

    def test_more_shards_than_nodes(self, tiny_graph):
        overlay = SelectOverlay(tiny_graph, config=SelectConfig(shards=50))
        with pytest.raises(ConfigurationError, match="shards"):
            overlay.build(seed=1)

    def test_bandwidth_model_rejected(self, small_graph):
        from repro.net.bandwidth import BandwidthModel

        overlay = SelectOverlay(
            small_graph,
            config=SelectConfig(num_workers=2),
            bandwidth=BandwidthModel(small_graph.num_nodes, seed=1),
        )
        with pytest.raises(ConfigurationError, match="bandwidth"):
            overlay.build(seed=1)

    def test_default_config_keeps_plain_path(self, small_graph):
        """num_workers=1 with shards unset must not enter the shard engine."""
        overlay = SelectOverlay(small_graph, config=SelectConfig(max_rounds=MAX_ROUNDS))
        overlay.build(seed=5)
        assert overlay.shard_stats is None


# -- bit-identical builds at any worker count ---------------------------------


class TestWorkerCountParity:
    @pytest.fixture(scope="class")
    def reference(self, small_graph):
        return sharded_build(small_graph, workers=1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_forked_build_matches_inline(self, small_graph, reference, workers):
        built = sharded_build(small_graph, workers=workers)
        assert np.array_equal(built.ids, reference.ids)
        assert link_sets(built) == link_sets(reference)
        assert routed_paths(built) == routed_paths(reference)
        assert built.iterations == reference.iterations
        assert built.shard_stats["workers"] == workers
        assert built.shard_stats["shards"] == 4

    def test_shard_count_is_part_of_the_contract(self, small_graph, reference):
        """Same workers, different shard count — still identical results
        (the determinism contract pins results per shard count *and*
        we keep shard-count invariance as a stronger property)."""
        built = sharded_build(small_graph, workers=1, shards=1)
        assert np.array_equal(built.ids, reference.ids)
        assert link_sets(built) == link_sets(reference)

    def test_frame_digest_deterministic(self, small_graph):
        a = sharded_build(small_graph, workers=2)
        b = sharded_build(small_graph, workers=2)
        assert a.shard_stats["frame_digest"] is not None
        assert a.shard_stats["frame_digest"] == b.shard_stats["frame_digest"]

    def test_inline_run_has_no_frames(self, reference):
        stats = reference.shard_stats
        assert stats["frame_digest"] is None
        assert stats["boundary_bytes"] == 0
        assert all(v == 0 for v in stats["frames"].values())

    def test_doctor_clean(self, small_graph, reference):
        report = check_overlay(reference)
        assert report.ring_ok

    def test_telemetry_counters(self, small_graph):
        registry = MetricsRegistry()
        built = sharded_build(small_graph, workers=2, registry=registry)
        counters = registry.counters()
        frames = {k: c.value for k, c in counters.items() if k.startswith("shard.frames")}
        assert sum(frames.values()) > 0
        assert counters["shard.boundary_bytes"].value > 0
        assert counters["shard.rounds"].value == built.shard_stats["rounds"]
        wait = registry.histograms()["shard.barrier_wait_seconds"]
        assert wait.count > 0


# -- checkpoints: round-trip, crash-restart, rebalance ------------------------


class TestShardCheckpoints:
    def test_arc_roundtrip(self, small_graph, tmp_path):
        root = str(tmp_path / "ckpt")
        built = sharded_build(
            small_graph, workers=2, checkpoint_dir=root, checkpoint_every=5
        )
        gen = latest_generation(root)
        assert gen is not None
        build_id, state = load_build(gen)
        plan = ShardPlan.from_dict(state["plan"])
        restored = SelectOverlay(
            small_graph,
            config=SelectConfig(max_rounds=MAX_ROUNDS, num_workers=1, shards=4),
        )
        restore_build_state(restored, state)
        for s in range(plan.num_shards):
            manifest, arc_state = load_arc(os.path.join(gen, f"shard-{s:03d}"))
            assert manifest["parent_snapshot_id"] == build_id
            assert manifest["num_vertices"] == len(plan.shard_vertices(s))
            restore_arc(restored, arc_state)
            for v, payload in zip(arc_state["vertices"], arc_state["peers"]):
                assert _capture_peer(restored.peers[int(v)]) == payload
        assert built.shard_stats["checkpoints"] >= 1

    def test_crash_restart_is_bit_identical(self, small_graph, tmp_path):
        clean = sharded_build(small_graph, workers=2)
        crashed = sharded_build(
            small_graph,
            workers=2,
            checkpoint_dir=str(tmp_path / "crash"),
            checkpoint_every=4,
            _fail_at=(1, 6),
        )
        assert crashed.shard_stats["restarts"] == 1
        assert np.array_equal(crashed.ids, clean.ids)
        assert link_sets(crashed) == link_sets(clean)
        assert routed_paths(crashed) == routed_paths(clean)
        assert check_overlay(crashed).ring_ok

    def test_crash_without_checkpoints_fails(self, small_graph, tmp_path):
        with pytest.raises(ShardError):
            sharded_build(small_graph, workers=2, _fail_at=(0, 3))

    def test_rebalance_resume_on_fewer_workers(self, small_graph, tmp_path):
        root = str(tmp_path / "rebalance")
        full = sharded_build(
            small_graph, workers=4, checkpoint_dir=root, checkpoint_every=4
        )
        resumed = sharded_build(small_graph, workers=2, resume_from=root)
        assert resumed.shard_stats["rebalances"] > 0
        assert np.array_equal(resumed.ids, full.ids)
        assert link_sets(resumed) == link_sets(full)

    def test_resume_from_empty_root_fails(self, small_graph, tmp_path):
        with pytest.raises(ShardError, match="resume"):
            sharded_build(small_graph, workers=2, resume_from=str(tmp_path / "void"))


# -- validator coverage for shard artifacts -----------------------------------


class TestValidateShardArtifacts:
    @pytest.fixture(scope="class")
    def generation(self, small_graph, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("valgen"))
        sharded_build(small_graph, workers=2, checkpoint_dir=root, checkpoint_every=5)
        gen = latest_generation(root)
        assert gen is not None
        return gen

    def test_generation_validates(self, generation):
        assert validate_dir(generation) == []

    def test_arc_validates(self, generation):
        assert validate_dir(os.path.join(generation, "shard-000")) == []

    def test_tampered_arc_rejected(self, generation, tmp_path):
        bad = str(tmp_path / "tampered")
        shutil.copytree(generation, bad)
        spath = os.path.join(bad, "shard-001", "state.json")
        with open(spath, encoding="utf-8") as fh:
            state = json.load(fh)
        state["peers"][0]["identifier"] = 0.123456
        with open(spath, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        errors = validate_dir(bad)
        assert any("content digest" in e for e in errors)

    def test_overlapping_plan_rejected(self, generation, tmp_path):
        from repro.persist.snapshot import snapshot_id

        bad = str(tmp_path / "badplan")
        shutil.copytree(generation, bad)
        bpath = os.path.join(bad, "build.json")
        with open(bpath, encoding="utf-8") as fh:
            record = json.load(fh)
        order = record["state"]["plan"]["order"]
        order[1] = order[0]
        record["build_id"] = snapshot_id(record["state"])
        with open(bpath, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        errors = validate_dir(bad)
        assert any("overlap" in e or "gap" in e for e in errors)

    def test_gapped_arc_set_rejected(self, generation, tmp_path):
        bad = str(tmp_path / "gap")
        shutil.copytree(generation, bad)
        shutil.rmtree(os.path.join(bad, "shard-001"))
        errors = validate_dir(bad)
        assert any("arc set mismatch" in e for e in errors)
        assert any("overlap or gap" in e for e in errors)
