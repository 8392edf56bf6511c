"""The benchmark's own contract, checked on the ``--smoke`` suite.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q``; tier-1's
``testpaths`` does not collect this directory (it takes about two
minutes).
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import suite
from harness import ROOT, SUITE_DIR, load_spec
from tracing import LEAF, ROW, Tracer, layer_metrics

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN = os.path.join(SUITE_DIR, "run.py")


def _run(*args, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The ``--smoke`` suite, untraced and traced: ``{traced: report}``."""
    reports = {}
    for traced in (False, True):
        out = tmp_path_factory.mktemp("suite") / f"smoke-{int(traced)}.json"
        argv = ["--smoke", "--seed", "1,2", "--out", str(out)] + (["--traced"] if traced else [])
        assert suite.main(argv) == 0
        reports[traced] = compare.load(str(out))
    return reports


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_printed_names_and_result_line(workload, trace):
    child = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert child.returncode == 0, child.stderr
    lines = child.stdout.strip().splitlines()
    declared = SPEC["per_layer" if trace else "end_to_end"]
    # the header, every declared metric, the detail line, the result line
    assert len(lines) == len(declared) + 3 and lines[-2].startswith("detail ")
    listed = [l.split() for l in lines[1 : 1 + len(declared)]]
    assert [l[0] for l in listed] == [m["name"] for m in declared]
    assert [l[2] for l in listed] == [m["unit"] for m in declared]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())


def test_spec_shape():
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"


def test_suite_runs_and_counts_repeat(smoke):
    for traced, report in smoke.items():
        assert report["traced"] is traced and report["smoke"] is True
        assert {"nproc", "python", "numpy", "commit"} <= set(report["environment"])
        assert len(report["runs"]) == 2 * len(WORKLOADS)
    by_key = {}
    for run in smoke[False]["runs"] + smoke[True]["runs"]:
        by_key.setdefault((run["workload"], run["seed"]), []).append(run)
    for (workload, _), (plain, spans) in by_key.items():
        # Same work with and without spans, and exact counts either way.
        assert plain["detail"]["state_digest"] == spans["detail"]["state_digest"]
        # The untraced run records the timings the traced result line has.
        assert set(plain["detail"]["timings"]) <= set(spans["detail"]["timings"]) <= set(spans["metrics"])
        counts = ["build_rounds", "friend_hops_mean"]
        if workload != "live_calm_64":  # how many publishes fit a live window varies
            counts += ["relays_per_publish", "availability"]
        for name in counts:
            assert plain["metrics"][name] == spans["detail"]["end_to_end"][name]


def test_traced_run_resolves_and_adds_up(smoke):
    for run in smoke[True]["runs"]:
        assert run["metrics"]["trace.unresolved_points"] == 0
        assert run["metrics"]["trace.spans"] > 0
        # Self times under a unit's root add up to its stopwatch reading.
        assert abs(run["metrics"]["trace.self_sum_ratio"] - 1.0) < 0.02, run["workload"]
    layers = {r["workload"]: r["metrics"] for r in smoke[True]["runs"]}
    assert layers["build_2k"]["core.links.create_calls"] > 0
    assert layers["build_2k"]["persist.save_s"] > 0
    assert layers["build_2k"]["snapshot_roundtrip_s"] > 0
    assert layers["build_2k"]["publish_per_s"] == 0 < layers["publish_calm_2k"]["publish_per_s"]
    assert layers["publish_calm_2k"]["overlay.routing.route_s"] > 0
    assert layers["publish_calm_2k"]["core.recovery.ticks"] == 0
    assert layers["publish_churn_1k"]["core.recovery.ticks"] > 0
    assert layers["publish_churn_1k"]["net.faults.transmit_calls"] > 0
    assert layers["live_calm_64"]["live.membership.merges"] > 0
    assert layers["live_calm_64"]["live.node.requests"] > 0


def test_unresolvable_trace_point_reads_zero():
    tracer = Tracer()
    tracer.install(
        {
            "repro.core.gone.missing": (ROW, None),
            "repro.core.select.SelectOverlay.gone": (ROW, None),
            "repro.sim.engine.SuperstepEngine.run": (ROW, None),
            # a coroutine function declared as a plain call is not wrapped either
            "repro.live.node.PeerNode.request": (LEAF, None),
        }
    )
    try:
        assert sorted(tracer.unresolved) == [
            "repro.core.gone.missing",
            "repro.core.select.SelectOverlay.gone",
            "repro.live.node.PeerNode.request",
        ]
        metrics = layer_metrics(tracer, {})
        assert metrics["trace.unresolved_points"] == 3
        assert metrics["core.links.create_s"] == 0.0
    finally:
        tracer.uninstall()


def test_capped_build_fails_the_run():
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import run, workloads; "
        "workloads.MAX_ROUNDS = 5; "
        "sys.exit(run.main(['--workload', 'build_2k', '--seed', '1', '--seconds', '1', '--smoke']))"
    ) % (SUITE_DIR, os.path.join(ROOT, "src"))
    child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert child.returncode == 1
    assert "did not converge" in child.stderr
    assert not child.stdout.strip().endswith("}")


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        SUITE_DIR,
        tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    script = str(tmp_path / "benchmarks" / "suite" / "run.py")
    child = _run("--workload", "build_2k", "--seed", "1", "--seconds", "1", cwd=tmp_path, script=script)
    assert child.returncode not in (0, None)
    assert "{" not in child.stdout


def test_compare_flags_regression_and_identity(smoke):
    # Steady sides (every run reads as its workload's first): set-up time over
    # two smoke runs alone spreads wider than its bound.
    old = copy.deepcopy(smoke[False])
    first = {}
    for run in old["runs"]:
        steady = first.setdefault(run["workload"], run)
        run["metrics"] = dict(steady["metrics"])
        run["detail"] = copy.deepcopy(steady["detail"])
    lines, any_worse = compare.compare(old, copy.deepcopy(old), SPEC)
    verdicts = [l.split()[-1] for l in lines[1:] if "failed_share" not in l and "note:" not in l]
    assert not any_worse and set(verdicts) == {"same", "-"}
    assert not any("note:" in l for l in lines)

    # A synthetic 20 % regression: of a gated metric, and of two timings
    # (a throughput, where lower is worse, and a time) whose sides no longer
    # overlap.
    worse = copy.deepcopy(old)
    for run in worse["runs"]:
        if run["workload"] == "publish_calm_2k":
            run["metrics"]["relays_per_publish"] *= 1.2
            run["detail"]["timings"]["publish_per_s"] /= 1.25
            run["detail"]["state_digest"] = "changed"
        if run["workload"] == "build_2k":
            run["detail"]["timings"]["build_converge_s"] *= 1.2
    lines, any_worse = compare.compare(old, worse, SPEC)
    slower = sorted((l.split()[0], l.split()[1]) for l in lines if l.split()[-1] == "worse")
    assert any_worse and slower == [
        ("build_2k", "build_converge_s"),
        ("publish_calm_2k", "publish_per_s"),
        ("publish_calm_2k", "relays_per_publish"),
    ]
    assert all("+20.0%" in l for l in lines if l.split()[-1] == "worse")
    assert [l.split()[0] for l in lines if "state_digest differs" in l] == ["publish_calm_2k"]

    # A gated side too spread out to tell reads unresolved, and overlapping
    # timings get no verdict: neither reads same or worse.
    noisy = copy.deepcopy(worse)
    calm_runs = [r for r in noisy["runs"] if r["workload"] == "publish_calm_2k"]
    calm_runs[0]["metrics"]["relays_per_publish"] *= 0.5
    calm_runs[0]["detail"]["timings"]["publish_per_s"] *= 2.0
    lines, _ = compare.compare(old, noisy, SPEC)
    calm = {l.split()[1]: l.split()[-1] for l in lines if l.startswith("publish_calm_2k")}
    assert calm["relays_per_publish"] == "unresolved" and calm["publish_per_s"] == "-"

    overhead = compare.overhead(smoke[False], smoke[True])
    assert any(l.startswith("build_2k") and " build_converge_s" in l for l in overhead)
    assert any(l.startswith("live_calm_64") and " live_cpu_share" in l for l in overhead)
