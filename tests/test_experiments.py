"""Experiment harness: configs, per-figure runs, CLI plumbing.

Uses a micro config so the whole module stays fast; the experiments'
numbers are validated for *shape* (who wins), not absolute values.
"""

import gc
import inspect
import weakref

import numpy as np
import pytest

from repro.experiments import (
    ablation,
    conn_sweep,
    doctor,
    faults,
    fig2_hops,
    fig3_relays,
    fig4_load,
    fig5_iterations,
    fig6_churn,
    fig7_latency,
    fig8_ids,
    geo,
    grid,
    stabilize,
    table2,
)
from repro.experiments.cli import EXPERIMENTS, build_parser, config_from_args, main
from repro.experiments.common import ExperimentConfig
from repro.util.exceptions import ConfigurationError


def _must_not_run(*args, **kwargs):
    raise AssertionError("report() re-ran the experiment")


MICRO = ExperimentConfig(
    datasets=("facebook",),
    systems=("select", "symphony"),
    num_nodes=90,
    trials=1,
    lookups=30,
    publishers=4,
)


class TestConfig:
    def test_presets_exist(self):
        for name in ("quick", "default", "full"):
            assert isinstance(ExperimentConfig.preset(name), ExperimentConfig)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.preset("huge")

    def test_with_overrides(self):
        cfg = ExperimentConfig.quick().with_(trials=9)
        assert cfg.trials == 9

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_nodes=2)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(trials=0)
        with pytest.raises(ConfigurationError, match="lookups"):
            ExperimentConfig(lookups=0)
        with pytest.raises(ConfigurationError, match="publishers"):
            ExperimentConfig(publishers=-1)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(systems=("selectron",))
        with pytest.raises(ConfigurationError, match=r"'facebok'.*available"):
            ExperimentConfig(datasets=("facebook", "facebok"))

    def test_dataset_aliases_accepted(self):
        # The spellings load_dataset accepts name the same profile everywhere.
        rows = table2.run(MICRO.with_(datasets=("Google+", "googleplus")))
        assert [row["paper_users"] for row in rows] == [107_614, 107_614]


class TestTable2:
    def test_rows_have_paper_columns(self):
        rows = table2.run(MICRO)
        assert len(rows) == 1
        assert rows[0]["paper_users"] == 63_731
        assert rows[0]["users"] > 0

    def test_report_renders(self, monkeypatch):
        rows = table2.run(MICRO)
        monkeypatch.setattr(table2, "run", _must_not_run)
        out = table2.report(MICRO, rows)
        assert "Table II" in out and "facebook" in out


class TestFig2:
    def test_rows_and_reduction(self):
        rows = fig2_hops.run(MICRO)
        systems = {r["system"] for r in rows}
        assert systems == {"select", "symphony"}
        sizes = {r["size"] for r in rows}
        assert len(sizes) == grid.GROWTH_POINTS and max(sizes) == MICRO.num_nodes
        # Paper shape: SELECT needs fewer hops than Symphony.
        at_large = {r["system"]: r["hops"] for r in rows if r["size"] == max(sizes)}
        assert at_large["select"] < at_large["symphony"]

    def test_report_mentions_reduction(self):
        out = fig2_hops.report(MICRO, fig2_hops.run(MICRO))
        assert "hop reduction" in out

    def test_no_size_above_num_nodes(self):
        # The 32-node floor stops at N: a 20-node run measures N=20.
        rows = fig2_hops.run(MICRO.with_(num_nodes=20, systems=("select",)))
        assert {r["size"] for r in rows} == {20}


class TestFig3:
    def test_select_fewer_relays_than_symphony(self):
        rows = fig3_relays.run(MICRO)
        at = {r["system"]: r["relays_per_path"] for r in rows}
        assert at["select"] < at["symphony"]

    def test_report_renders(self):
        assert "relay" in fig3_relays.report(MICRO, fig3_relays.run(MICRO)).lower()


class TestFig4:
    def test_shares_cover_all_bins(self):
        rows = fig4_load.run(MICRO)
        for r in rows:
            assert len(r["share_percent"]) == fig4_load.LOAD_BINS
            assert 0 <= r["gini"] <= 1

    def test_report_renders(self):
        out = fig4_load.report(MICRO, fig4_load.run(MICRO))
        assert "Figure 4" in out and "Total forwards" in out


class TestFig5:
    def test_only_iterative_systems(self):
        cfg = MICRO.with_(systems=("select", "symphony", "vitis"))
        rows = fig5_iterations.run(cfg)
        assert {r["system"] for r in rows} == {"select", "vitis"}

    def test_select_fewer_iterations(self):
        cfg = MICRO.with_(systems=("select", "vitis"))
        rows = fig5_iterations.run(cfg)
        at = {r["system"]: r["iterations"] for r in rows}
        assert at["select"] < at["vitis"]

    def test_capped_build_reads_as_capped(self):
        from types import SimpleNamespace

        from repro import SelectConfig, SelectOverlay, load_dataset

        graph = load_dataset("facebook", num_nodes=MICRO.num_nodes, seed=7)
        capped = SelectOverlay(graph, config=SelectConfig(max_rounds=3)).build(seed=7)
        done = SelectOverlay(graph).build(seed=7)
        assert not capped.converged and done.converged
        sample = lambda overlay: fig5_iterations.sample(MICRO, SimpleNamespace(overlay=overlay), None)
        rows = fig5_iterations.row(MICRO, "facebook", "select", MICRO.num_nodes, [sample(done), sample(capped)])
        rows += fig5_iterations.row(MICRO, "facebook", "vitis", MICRO.num_nodes, [(200.0, True)])
        assert rows[0]["capped"] == 1 and rows[0]["trials"] == 2
        out = fig5_iterations.report(MICRO, rows)
        assert "capped at 3 (1/2 trials)" in out
        assert "fewer iterations" not in out  # no advantage from a capped cell


class TestGrid:
    FIGURES = {
        "fig2": fig2_hops, "fig3": fig3_relays, "fig4": fig4_load, "fig5": fig5_iterations,
        "geo": geo, "fig6": fig6_churn, "fig7": fig7_latency, "fig8": fig8_ids,
        "doctor": doctor, "faults": faults, "stabilize": stabilize,
    }

    def test_every_grid_experiment_is_listed(self):
        assert set(grid.MEASURES) == set(self.FIGURES)
        assert {n: EXPERIMENTS[n] for n in grid.MEASURES} == self.FIGURES

    @staticmethod
    def _counting_builds(monkeypatch):
        """Count grid builds; each new cell first checks that no earlier cell,
        nor an overlay built or restored for one, is alive."""
        built, alive = [], []
        build, restore, cell = grid.build_system, grid.restore, grid.Cell

        def check():
            gc.collect()
            assert all(ref() is None for ref in alive), "an overlay or snapshot outlived its cell"

        def counted(*args, **kwargs):
            overlay = build(*args, **kwargs)
            built.append((args[1], args[2].num_nodes, args[3], tuple(kwargs)))
            alive.append(weakref.ref(overlay))
            return overlay

        def restored(*args, **kwargs):
            overlay = restore(*args, **kwargs)
            alive.append(weakref.ref(overlay))
            return overlay

        class Tracked(cell):
            def __init__(self, *args):
                check()
                super().__init__(*args)
                alive.append(weakref.ref(self))  # and with it the snapshot it holds

        monkeypatch.setattr(grid, "build_system", counted)
        monkeypatch.setattr(grid, "restore", restored)
        monkeypatch.setattr(grid, "Cell", Tracked)
        return built, check

    def test_shared_walk_builds_each_cell_once(self, monkeypatch):
        cfg = MICRO.with_(systems=("select", "symphony", "vitis"))
        standalone = {name: module.run(cfg) for name, module in self.FIGURES.items()}
        built, check = self._counting_builds(monkeypatch)
        with grid.shared(tuple(self.FIGURES)):
            shared = {name: module.run(cfg) for name, module in self.FIGURES.items()}
        # Fig. 2's cells, then Fig. 7's bandwidth-aware SELECT and random overlay.
        cells = len(cfg.datasets) * len(grid.growth_sizes(cfg)) * len(cfg.systems) * cfg.trials
        assert len(built) == len(set(built)) == cells + 2 == 11
        assert shared == standalone
        check()

    def test_outside_shared_each_call_measures_its_own_cells(self, monkeypatch):
        built, _ = self._counting_builds(monkeypatch)
        with grid.shared(("fig2",)):
            fig3_relays.run(MICRO)
            fig3_relays.run(MICRO)
        assert len(built) == 2 * len(MICRO.systems)

    @pytest.mark.parametrize("module", [fig6_churn, faults, stabilize], ids=lambda m: m.__name__)
    def test_writers_match_fresh_builds(self, module, monkeypatch):
        # Every sample on a fresh build of its own, as if no cell were shared.
        cfg = MICRO.with_(trials=2)
        shared = module.run(cfg)
        monkeypatch.setattr(grid.Cell, "overlay", property(lambda cell: cell.build()))
        monkeypatch.setattr(grid.Cell, "writable", lambda cell, final: cell.build())
        assert module.run(cfg) == shared


class TestFig6:
    def test_recovery_beats_no_recovery(self):
        rows = fig6_churn.run(MICRO)
        by_variant = {r["variant"]: r for r in rows}
        rec = by_variant["SELECT (recovery)"]
        no_rec = by_variant["SELECT (no recovery)"]
        assert rec["mean_availability"] >= no_rec["mean_availability"]
        assert rec["mean_availability"] > 0.95
        assert len(rec["availability_series"]) == fig6_churn.TICKS


class TestFig7:
    def test_random_overlay_included_and_slower(self):
        rows = fig7_latency.run(MICRO)
        at = {r["system"]: r["latency_ms"] for r in rows}
        assert "random" in at
        assert at["select"] < at["random"]

    def test_probe_linear_in_connections(self):
        probe = fig7_latency.simultaneous_transfer_probe(fanouts=(1, 2, 4))
        times = [r["total_ms"] for r in probe]
        assert times[1] == pytest.approx(2 * times[0])
        assert times[2] == pytest.approx(4 * times[0])


class TestFig8:
    def test_friends_closer_than_random(self):
        rows = fig8_ids.run(MICRO)
        r = rows[0]
        assert r["mean_friend_distance"] < r["mean_random_distance"]
        assert len(r["histogram"]) == fig8_ids.BINS
        assert sum(r["histogram"]) == pytest.approx(1.0)

    def test_distances_equal_the_per_pair_loop(self):
        from repro.experiments.common import dataset_graph
        from repro.idspace.space import ring_distance

        cell = grid.Cell(MICRO, "facebook", "select", 1, dataset_graph(MICRO, "facebook", 1))
        stats, _ = fig8_ids.sample(MICRO, cell, None)
        ids, graph = cell.overlay.ids, cell.graph
        friend = [ring_distance(float(ids[u]), float(ids[v])) for u, v in graph.edges()]
        pairs = np.random.default_rng(1).integers(0, graph.num_nodes, size=(len(friend), 2))
        random = [ring_distance(float(ids[a]), float(ids[b])) for a, b in pairs if a != b]
        assert len(random) < len(friend)  # the a == b filter is exercised
        assert stats["mean_friend_distance"] == float(np.mean(friend))
        assert stats["mean_random_distance"] == float(np.mean(random))


class TestAblation:
    def test_variants_all_measured(self):
        rows = ablation.run(MICRO, churn_ticks=3)
        assert {r["variant"] for r in rows} == set(ablation.VARIANTS)
        for r in rows:
            assert r["hops"] >= 1.0
            assert 0.0 <= r["availability"] <= 1.0

    def test_recovery_ablation_hurts_availability(self):
        rows = ablation.run(MICRO, churn_ticks=3)
        by = {r["variant"]: r for r in rows}
        assert by["no-recovery"]["availability"] <= by["full"]["availability"]

    def test_report_renders(self):
        assert "Ablation" in ablation.report(MICRO, ablation.run(MICRO))


class TestConnSweep:
    def test_hops_improve_with_more_links(self):
        rows = conn_sweep.run(MICRO)
        by_k = {r["k_links"]: r["hops"] for r in rows}
        ks = sorted(by_k)
        assert by_k[ks[0]] > by_k[ks[-1]]  # K=1 much worse than large K

    def test_sweep_includes_log2n(self):
        values = conn_sweep.sweep_values(256)
        assert 8 in values


class TestStabilize:
    def test_select_meets_acceptance_criteria(self):
        rows = stabilize.run(MICRO)
        by = {(r["system"], r["r"]): r for r in rows}
        select = by[("select", 3)]
        # Acceptance: with r >= 3 the ring re-merges within <= 10 rounds of
        # the cut healing and post-heal availability (with catch-up) > 99%.
        assert select["converged"] == 1.0
        assert select["heal_rounds"] <= 10
        assert select["post_heal_availability"] > 0.99
        assert select["total_availability"] > 0.99

    def test_select_heals_no_slower_than_symphony(self):
        rows = stabilize.run(MICRO)
        by = {r["system"]: r["heal_rounds"] for r in rows if r["r"] == 3}
        assert by["select"] <= by["symphony"]

    def test_report_renders(self):
        out = stabilize.report(MICRO, stabilize.run(MICRO))
        assert "Self-healing sweep" in out and "SELECT" in out


class TestFaults:
    @pytest.mark.parametrize("systems", [("select",), ("symphony",)])
    def test_only_configured_systems(self, systems):
        rows = faults.run(MICRO.with_(systems=systems))
        assert {r["system"] for r in rows} == set(systems)
        assert [r["loss_rate"] for r in rows] == list(faults.LOSS_RATES)

    def test_cli_prints_no_unconfigured_system(self, capsys):
        assert main(["faults", "--systems", "select", "--num-nodes", "64", "--trials", "1",
                     "--datasets", "facebook"]) == 0
        out = capsys.readouterr().out
        assert "SELECT" in out and "Symphony" not in out


class TestDoctor:
    def test_built_overlays_are_healthy(self):
        rows = doctor.run(MICRO)
        assert {r["system"] for r in rows} == {"select", "symphony"}
        for r in rows:
            assert r["ok"], r
            assert r["ring_cycles"] == 1
            assert r["largest_cycle"] == r["peers"]

    def test_report_renders(self, monkeypatch):
        rows = doctor.run(MICRO)
        monkeypatch.setattr(doctor, "run", _must_not_run)
        out = doctor.report(MICRO, rows)
        assert "doctor" in out.lower()
        assert "all overlays healthy" in out


class TestCli:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_report_renders_only_what_it_is_given(self, name):
        # One entry point per experiment: `run` computes, `report(config,
        # rows)` renders those rows and has no knob of `run`'s to re-run with.
        params = inspect.signature(EXPERIMENTS[name].report).parameters
        assert list(params) == ["config", "rows"]
        assert all(p.default is inspect.Parameter.empty for p in params.values())

    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table2", "ablation", "conn-sweep", "doctor", "faults", "geo",
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "stabilize",
            "warmstart",
        }

    def test_parser_overrides(self):
        args = build_parser().parse_args(
            ["fig3", "--preset", "quick", "--num-nodes", "99", "--trials", "2",
             "--datasets", "facebook", "--seed", "7"]
        )
        cfg = config_from_args(args)
        assert cfg.num_nodes == 99
        assert cfg.trials == 2
        assert cfg.datasets == ("facebook",)
        assert cfg.seed == 7

    @pytest.mark.parametrize(
        "flag,value,error",
        [
            ("--datasets", "facebook,facebok", "unknown datasets: ['facebok']"),
            ("--systems", "select,selekt", "unknown systems: ['selekt']"),
        ],
        ids=["dataset", "system"],
    )
    def test_unknown_name_fails_before_any_work(self, flag, value, error, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["all", flag, value, "--num-nodes", "64", "--trials", "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].startswith(f"select-repro: error: {error}")

    def test_main_runs_table2(self, capsys):
        rc = main(["table2", "--preset", "quick", "--num-nodes", "80",
                   "--datasets", "facebook", "--trials", "1"])
        assert rc == 0
        assert "Table II" in capsys.readouterr().out

    def test_config_digest_stable_and_resume_agnostic(self):
        a, b = MICRO.digest(), MICRO.digest()
        assert a == b and len(a) == 16
        assert MICRO.with_(resume_from="/some/path").digest() == a
        assert MICRO.with_(seed=1).digest() != a


class TestBuildVerb:
    """``select-repro build``: one construction, its ledger and its verdict."""

    ARGS = ["--num-nodes", "300", "--datasets", "facebook"]

    def test_telemetry_carries_the_phase_ledger(self, tmp_path, capsys):
        import json
        import re

        from repro.validate import validate_path

        out = str(tmp_path / "telemetry")
        assert main(["build", *self.ARGS, "--seed", "7", "--telemetry", out]) == 0
        rounds = int(re.search(r"converged in (\d+) rounds", capsys.readouterr().out).group(1))
        with open(tmp_path / "telemetry" / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        metrics = report["metrics"]
        for phase in ("exchange", "propose", "links", "barrier"):
            assert metrics["histograms"][f"build.phase.{phase}.seconds"]["count"] == rounds
        assert metrics["counters"]["build.links.planned"] > 0
        # The per-round series: one id_moves and one link_changes point a round.
        assert report["series"]["names"] == ["id_moves", "link_changes"]
        with open(tmp_path / "telemetry" / "series.jsonl", encoding="utf-8") as fh:
            assert len(fh.read().splitlines()) == 2 * rounds
        assert validate_path(out) == []

    def test_exit_code_is_the_convergence_verdict(self, capsys):
        # 300/7 goes quiet for the second time on round 60 of 60: converged.
        assert main(["build", *self.ARGS, "--seed", "7"]) == 0
        assert "converged in 60 rounds" in capsys.readouterr().out
        assert main(["build", *self.ARGS, "--seed", "3"]) == 1
        said = capsys.readouterr().out
        assert "converged in" not in said
        assert "stopped at the max_rounds=60 cap without converging" in said

    def test_resume_is_refused(self, capsys):
        assert main(["build", *self.ARGS, "--resume", "somewhere"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_snapshot_dir_validates(self, tmp_path):
        from repro.validate import validate_snapshot as validate_dir

        out = str(tmp_path / "snap")
        assert main(["build", out, "--num-nodes", "120", "--datasets", "facebook"]) == 0
        assert validate_dir(out) == []

    def test_stale_checkpoint_dir_is_reported_not_crashed_on(self, tmp_path):
        from repro.validate import validate_snapshot as validate_dir

        # What a pre-removal sharded build left behind.
        (tmp_path / "shard-000").mkdir()
        (tmp_path / "build.json").write_text("{}", encoding="utf-8")
        errors = validate_dir(str(tmp_path))
        assert any("manifest.json" in e for e in errors)
        assert any("state.json" in e for e in errors)


class TestWarmstart:
    def test_warm_restore_resumes_round_counter(self):
        from repro.experiments import warmstart

        rows = warmstart.run(MICRO.with_(trials=2))
        assert len(rows) == 2
        for r in rows:
            assert r["doctor_ok"]
            # The warm path demonstrably skips re-convergence: its round
            # counter continues from the manifest, the cold build's starts
            # over and runs its own gossip rounds.
            assert r["warm_round"] == r["manifest_round"] > 0
            assert r["cold_rounds"] > 0

    def test_report_names_the_resume_round(self):
        from repro.experiments import warmstart

        config = MICRO.with_(trials=1)
        out = warmstart.report(config, warmstart.run(config))
        assert "round counter resumes at" in out

    def test_cli_snapshot_then_resume(self, tmp_path, capsys):
        snap_dir = str(tmp_path / "snap")
        rc = main(["build", snap_dir, "--preset", "quick", "--num-nodes", "90",
                   "--datasets", "facebook", "--trials", "1"])
        assert rc == 0
        assert f"written to {snap_dir}" in capsys.readouterr().out

        from repro.validate import validate_snapshot as validate_dir

        assert validate_dir(snap_dir) == []
        rc = main(["warmstart", "--preset", "quick", "--num-nodes", "90",
                   "--datasets", "facebook", "--trials", "1",
                   "--resume", snap_dir])
        assert rc == 0
        assert "Warm start" in capsys.readouterr().out

    def test_snapshot_verb_is_gone(self, tmp_path, capsys):
        # `build DIR` is the one way to save a converged overlay.
        with pytest.raises(SystemExit) as exc:
            main(["snapshot", str(tmp_path / "snap")])
        assert exc.value.code == 2
        assert "invalid choice: 'snapshot'" in capsys.readouterr().err
        assert not (tmp_path / "snap").exists()

    def test_resume_stamps_snapshot_id_into_provenance(self, tmp_path):
        import json
        import os

        snap_dir = str(tmp_path / "snap")
        telemetry_dir = str(tmp_path / "telemetry")
        args = ["--preset", "quick", "--num-nodes", "90",
                "--datasets", "facebook", "--trials", "1"]
        assert main(["build", snap_dir] + args) == 0
        assert main(["warmstart", "--resume", snap_dir,
                     "--telemetry", telemetry_dir] + args) == 0
        with open(os.path.join(telemetry_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        prov = report["provenance"]
        from repro.persist import load

        assert prov["snapshot_id"] == load(snap_dir)["manifest"]["snapshot_id"]
        assert prov["root_seed"] is not None
        assert prov["config_hash"] is not None and len(prov["config_hash"]) == 16
