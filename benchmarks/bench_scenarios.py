"""Scenario benchmark: overload shedding on vs off under a flash crowd.

Runs the catalog's ``flash_crowd`` scenario twice on the same seed — once
with overload protection (priority admission, bounded retry, shed to
catch-up) and once with the same queue physics but silent overflow — and
emits a ``BENCH_scenarios.json`` (schema ``select-repro/bench/v1``)
recording both verdicts side by side. The harness asserts the headline
robustness claim before writing anything: the protected run must hold
the total-availability SLO that the unprotected run fails.

Run::

    PYTHONPATH=src python benchmarks/bench_scenarios.py --num-nodes 160
    PYTHONPATH=src python benchmarks/bench_scenarios.py --validate BENCH_scenarios.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.scenarios import run_scenario
from repro.telemetry.registry import MetricsRegistry
from repro.validate import validate_verdict

BENCH_SCHEMA = "select-repro/bench/v1"
SCENARIO = "flash_crowd"


def _run(protected: bool, num_nodes: int, seed: int) -> "tuple[dict, float]":
    start = time.perf_counter()
    result = run_scenario(
        SCENARIO,
        num_nodes=num_nodes,
        seed=seed,
        protected=protected,
        registry=MetricsRegistry(),
    )
    elapsed = time.perf_counter() - start
    return result.verdict, elapsed


def run_bench(num_nodes: int, seed: int) -> dict:
    protected, protected_seconds = _run(True, num_nodes, seed)
    unprotected, unprotected_seconds = _run(False, num_nodes, seed)
    for label, verdict in (("protected", protected), ("unprotected", unprotected)):
        errors = validate_verdict(verdict)
        if errors:
            raise AssertionError(f"{label} verdict failed schema validation: {errors}")
    if not protected["passed"]:
        raise AssertionError(
            "protected flash crowd failed its SLO — the protection no longer "
            f"holds the floor it exists for: {protected['objectives']}"
        )
    if unprotected["passed"]:
        raise AssertionError(
            "unprotected flash crowd passed the SLO — the scenario no longer "
            "saturates the queues, so the benchmark demonstrates nothing"
        )
    obs_p, obs_u = protected["observed"], unprotected["observed"]
    return {
        "schema": BENCH_SCHEMA,
        "name": "scenarios",
        "config": {
            "scenario": SCENARIO,
            "dataset": "facebook",
            "num_nodes": num_nodes,
            "seed": seed,
            "horizon": protected["horizon"],
        },
        "metrics": {
            "protected_slo_passed": 1.0,
            "unprotected_slo_passed": 0.0,
            "protected_total_availability": obs_p["total_availability"],
            "unprotected_total_availability": obs_u["total_availability"],
            "availability_gain": (
                obs_p["total_availability"] - obs_u["total_availability"]
            ),
            "protected_drop_rate": obs_p["drop_rate"],
            "unprotected_drop_rate": obs_u["drop_rate"],
            "protected_shed": float(obs_p["shed"]),
            "protected_catchup_recovered": float(obs_p["catchup_recovered"]),
            "unprotected_drops": float(obs_u["drops"]),
            "protected_run_seconds": protected_seconds,
            "unprotected_run_seconds": unprotected_seconds,
        },
        "timers": {
            "bench.protected_run": {"sum_seconds": protected_seconds, "count": 1},
            "bench.unprotected_run": {"sum_seconds": unprotected_seconds, "count": 1},
        },
        "verdicts": {"protected": protected, "unprotected": unprotected},
    }


# -- schema validation --------------------------------------------------------

REQUIRED_METRICS = (
    "protected_slo_passed",
    "unprotected_slo_passed",
    "protected_total_availability",
    "unprotected_total_availability",
    "availability_gain",
    "protected_drop_rate",
    "unprotected_drop_rate",
    "protected_shed",
    "protected_catchup_recovered",
    "unprotected_drops",
    "protected_run_seconds",
    "unprotected_run_seconds",
)

REQUIRED_CONFIG = ("scenario", "dataset", "num_nodes", "seed", "horizon")


def validate_report(report: dict) -> "list[str]":
    """Schema check for a BENCH_scenarios.json payload; returns problems."""
    problems: list[str] = []
    if report.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {report.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    if report.get("name") != "scenarios":
        problems.append(f"name is {report.get('name')!r}, expected 'scenarios'")
    config = report.get("config")
    if not isinstance(config, dict):
        problems.append("config missing or not an object")
    else:
        for key in REQUIRED_CONFIG:
            if not isinstance(config.get(key), (int, float, str)):
                problems.append(f"config.{key} missing or mistyped")
    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics missing or not an object")
    else:
        for key in REQUIRED_METRICS:
            value = metrics.get(key)
            if not isinstance(value, (int, float)):
                problems.append(f"metrics.{key} missing or not numeric")
        if metrics.get("protected_slo_passed") != 1.0:
            problems.append("metrics.protected_slo_passed must be 1.0")
        if metrics.get("unprotected_slo_passed") != 0.0:
            problems.append("metrics.unprotected_slo_passed must be 0.0")
        gain = metrics.get("availability_gain")
        if isinstance(gain, (int, float)) and gain <= 0:
            problems.append(f"availability_gain must be positive, got {gain}")
    verdicts = report.get("verdicts")
    if not isinstance(verdicts, dict):
        problems.append("verdicts missing or not an object")
    else:
        for label in ("protected", "unprotected"):
            doc = verdicts.get(label)
            if not isinstance(doc, dict):
                problems.append(f"verdicts.{label} missing")
                continue
            for err in validate_verdict(doc):
                problems.append(f"verdicts.{label}: {err}")
    timers = report.get("timers")
    if not isinstance(timers, dict):
        problems.append("timers missing or not an object")
    else:
        for name, entry in timers.items():
            if not isinstance(entry, dict) or "sum_seconds" not in entry or "count" not in entry:
                problems.append(f"timers[{name!r}] must have sum_seconds and count")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-nodes", type=int, default=160)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--out", default="BENCH_scenarios.json")
    parser.add_argument(
        "--validate",
        metavar="PATH",
        help="validate an existing report's schema instead of benchmarking",
    )
    args = parser.parse_args(argv)

    if args.validate:
        with open(args.validate, encoding="utf-8") as fh:
            report = json.load(fh)
        problems = validate_report(report)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        print(f"{args.validate}: ok ({report['config']['num_nodes']} nodes)")
        return 0

    report = run_bench(args.num_nodes, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    m = report["metrics"]
    print(
        f"flash crowd, protected   : total availability "
        f"{m['protected_total_availability']:.4f} (SLO PASS, "
        f"{m['protected_shed']:.0f} shed, "
        f"{m['protected_catchup_recovered']:.0f} caught up)"
    )
    print(
        f"flash crowd, unprotected : total availability "
        f"{m['unprotected_total_availability']:.4f} (SLO FAIL, "
        f"{m['unprotected_drops']:.0f} silently dropped)"
    )
    print(f"protection gain          : +{m['availability_gain']:.4f} availability")
    print(f"[saved to {args.out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
