"""Command-line harness: ``select-repro <experiment> [--preset quick]``.

Regenerates any of the paper's tables/figures as text reports. ``all``
runs every experiment in paper order. ``--telemetry DIR`` installs a
process-wide metrics registry and span tracer for the run and writes
``metrics.prom`` / ``report.json`` / ``traces.jsonl`` into ``DIR``;
``select-repro report DIR`` renders that directory back as text.

``select-repro build [DIR]`` runs one SELECT construction on its own (its
phase ledger and per-round series go to ``--telemetry``), saves the
overlay's columns as a ``select-repro/snapshot/v2`` directory when given ``DIR``,
and exits 1 when the build stopped at the ``max_rounds`` cap without
converging. ``--resume DIR`` hands the saved snapshot to experiments that
can warm-start from it (``warmstart``) and stamps its id into the
telemetry provenance block. ``select-repro live NAME`` runs one scripted
:class:`~repro.live.LiveCluster` (``--trace`` arms its causal tracing).
``select-repro validate PATH`` schema-checks whatever of these a verb
wrote there: snapshot, telemetry, verdict (:mod:`repro.validate`).
"""

from __future__ import annotations

import argparse
import os
import sys

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
    warmstart,
)
from repro.experiments.common import ExperimentConfig
from repro.telemetry.registry import MetricsRegistry, set_registry, use_registry
from repro.telemetry.tracer import Tracer, set_tracer
from repro.util.exceptions import ConfigurationError

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS = {
    "table2": table2,
    "ablation": ablation,
    "conn-sweep": conn_sweep,
    "doctor": doctor,
    "faults": faults,
    "fig2": fig2_hops,
    "fig3": fig3_relays,
    "fig4": fig4_load,
    "fig5": fig5_iterations,
    "fig6": fig6_churn,
    "fig7": fig7_latency,
    "fig8": fig8_ids,
    "geo": geo,
    "stabilize": stabilize,
    "warmstart": warmstart,
}


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="select-repro",
        description="Regenerate the SELECT paper's tables and figures.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "report", "scenario", "live", "trace", "build", "validate"],
        help="which artifact to regenerate, 'report' to render a telemetry dir, "
        "'scenario' to run a named chaos scenario to an SLO verdict, 'live' to "
        "run a scripted asyncio cluster with SWIM membership, 'trace' to render "
        "the causal trees in a telemetry dir (a simulator run's or a live "
        "run's), 'build' to run one overlay construction (and save it as a "
        "snapshot), or 'validate' to schema-check what any of them wrote",
    )
    parser.add_argument(
        "dir",
        nargs="?",
        default=None,
        metavar="DIR",
        help="telemetry directory ('report'/'trace'), snapshot directory "
        "('build'), scenario name ('scenario'/'live'), or what to check ('validate')",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="with 'scenario'/'live': list the catalog and exit",
    )
    parser.add_argument(
        "--unprotected",
        action="store_true",
        help="with 'scenario': disable overload protection and catch-up "
        "(the baseline the protection is judged against)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="with 'live': thread causal trace context through every "
        "envelope and arm per-node flight recorders (opt-in; off = the "
        "zero-overhead path)",
    )
    parser.add_argument(
        "--trace-id",
        default=None,
        metavar="ID",
        help="with 'trace': show only this causal chain (e.g. '412:17')",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=10,
        help="with 'trace': how many causal trees to render (default 10)",
    )
    parser.add_argument("--preset", default="quick", choices=["quick", "default", "full"])
    parser.add_argument("--num-nodes", type=int, default=None, help="override graph size")
    parser.add_argument("--trials", type=int, default=None, help="override trial count")
    parser.add_argument("--seed", type=int, default=None, help="override root seed")
    parser.add_argument(
        "--datasets",
        default=None,
        help="comma-separated subset, e.g. facebook,slashdot",
    )
    parser.add_argument(
        "--systems",
        default=None,
        help="comma-separated subset, e.g. select,symphony",
    )
    parser.add_argument(
        "--export",
        default=None,
        metavar="DIR",
        help="also write the raw rows as CSV into this directory",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help="collect metrics + causal traces (one chain per publish pair and "
        "lookup) and write them into DIR",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="warm-start from a snapshot directory saved by 'select-repro build DIR'",
    )
    return parser


def config_from_args(args) -> ExperimentConfig:
    config = ExperimentConfig.preset(args.preset)
    overrides = {}
    if args.num_nodes is not None:
        overrides["num_nodes"] = args.num_nodes
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.datasets:
        overrides["datasets"] = tuple(s.strip() for s in args.datasets.split(",") if s.strip())
    if args.systems:
        overrides["systems"] = tuple(s.strip() for s in args.systems.split(",") if s.strip())
    if getattr(args, "resume", None):
        overrides["resume_from"] = args.resume
    return config.with_(**overrides) if overrides else config


def _run_report(args) -> int:
    from repro.telemetry.report import render_report

    if not args.dir:
        print("usage: select-repro report TELEMETRY_DIR", file=sys.stderr)
        return 2
    print(render_report(args.dir))
    return 0


def _run_validate(args) -> int:
    from repro.validate import main as validate_main

    return validate_main([args.dir] if args.dir else [])


def _build_outcome(overlay) -> "tuple[bool, str]":
    """Whether a finished build converged, and the sentence that says so."""
    if overlay.converged:
        return True, f"converged in {overlay.iterations} rounds"
    return False, f"stopped at the max_rounds={overlay.config.max_rounds} cap without converging"


def _run_build(args, config: ExperimentConfig) -> int:
    """Run one overlay construction end to end."""
    import time

    from repro.core.select import SelectOverlay
    from repro.experiments.common import dataset_graph

    if args.resume:
        print(
            "usage: select-repro build [SNAPSHOT_DIR] [--telemetry DIR] "
            "(a build cannot be resumed; --resume warm-starts experiments)",
            file=sys.stderr,
        )
        return 2
    dataset = config.datasets[0]
    graph = dataset_graph(config, dataset, 0)
    seed = config.seed
    # Installed process-wide for the build: the round books its
    # build.phase.* / build.exchange.* / build.links.* through get_registry().
    registry = MetricsRegistry()
    overlay = SelectOverlay(graph)
    t0 = time.perf_counter()
    with use_registry(registry):
        overlay.build(seed=seed)
    elapsed = time.perf_counter() - t0
    converged, outcome = _build_outcome(overlay)
    print(f"build: {dataset} n={graph.num_nodes} seed={seed} -> {outcome}, {elapsed:.2f}s")
    if args.dir:
        from repro.persist import save

        snapshot = overlay.snapshot()
        save(snapshot, args.dir)
        print(f"  snapshot {snapshot['manifest']['snapshot_id']} written to {args.dir}")
    if args.telemetry:
        from repro.telemetry.export import write_telemetry

        meta = {"build_dataset": dataset, "seed": seed, "num_nodes": graph.num_nodes}
        paths = write_telemetry(
            args.telemetry,
            registry,
            recorder=overlay.trace,
            meta=meta,
            provenance={"root_seed": seed},
        )
        print(
            f"[telemetry written to {args.telemetry}: {', '.join(sorted(paths))}]",
            file=sys.stderr,
        )
    return 0 if converged else 1


def _print_objectives(objectives, label: str = "") -> None:
    """One line per SLO objective: observed, bound, margin and verdict."""
    for obj in objectives:
        sign = ">=" if obj["kind"] == "floor" else "<="
        status = "ok" if obj["passed"] else "VIOLATED"
        print(
            f"  {label}{obj['name']:{22 - len(label)}s} {obj['observed']:10.4f} {sign} "
            f"{obj['threshold']:10.4f}  margin {obj['margin']:+.4f}  {status}"
        )


def _run_scenario(args) -> int:
    """Run one catalog scenario and report (and optionally write) its verdict."""
    from repro.scenarios import get_scenario, run_scenario, scenario_names
    from repro.scenarios.slo import VERDICT_FILE, write_verdict

    if args.list:
        for name in scenario_names():
            print(f"{name:17s} {get_scenario(name).description}")
        return 0
    if not args.dir:
        print(
            "usage: select-repro scenario NAME [--telemetry DIR] (or --list)",
            file=sys.stderr,
        )
        return 2

    registry = MetricsRegistry()
    result = run_scenario(
        args.dir,
        num_nodes=args.num_nodes if args.num_nodes is not None else 160,
        seed=args.seed if args.seed is not None else 2018,
        protected=False if args.unprotected else None,
        registry=registry,
        resume_from=args.resume or None,
    )
    verdict = result.verdict

    print(f"scenario {verdict['scenario']}: {'PASS' if verdict['passed'] else 'FAIL'}")
    _print_objectives(verdict["objectives"])
    obs = verdict["observed"]
    print(
        f"  [{obs['notifications']} notifications, shed {obs['shed']}, "
        f"dropped {obs['drops']}, caught up {obs['catchup_recovered']}]"
    )

    if args.telemetry:
        from repro.telemetry.export import write_telemetry

        meta = {
            "scenario": verdict["scenario"],
            "seed": verdict["seed"],
            "num_nodes": verdict["num_nodes"],
            "protected": not args.unprotected,
        }
        paths = write_telemetry(
            args.telemetry, registry, meta=meta, provenance=dict(verdict["provenance"])
        )
        verdict_path = os.path.join(args.telemetry, VERDICT_FILE)
        write_verdict(verdict, verdict_path)
        print(
            f"[telemetry written to {args.telemetry}: "
            f"{', '.join(sorted(paths) + [VERDICT_FILE])}]",
            file=sys.stderr,
        )
    return 0 if verdict["passed"] else 1


def _run_live(args) -> int:
    """Run one scripted live-cluster scenario and report its verdict."""
    import asyncio

    from repro.live import LiveCluster, get_live_scenario, live_scenario_names

    if args.list:
        for name in live_scenario_names():
            print(f"{name:20s} {get_live_scenario(name).description}")
        return 0
    name = args.dir
    if not name:
        print(
            "usage: select-repro live NAME [--num-nodes N] [--seed S] [--trace] "
            "[--telemetry DIR] (or --list)",
            file=sys.stderr,
        )
        return 2
    nodes = args.num_nodes or 100
    seed = args.seed if args.seed is not None else 2018
    registry = MetricsRegistry()
    cluster = LiveCluster(
        num_nodes=nodes,
        scenario=name,
        seed=seed,
        registry=registry,
        trace=args.trace,
        flight_path=os.path.join(args.telemetry, "flight.json") if args.telemetry else None,
    )
    result = asyncio.run(cluster.run())

    ok = (
        result["membership_converged"]
        and result["doctor_ok"]
        and result["unaccounted"] == 0
        and result["eventual_delivery_ratio"] >= 0.99
        and not result["gave_up_nodes"]
    )
    if args.trace:
        ok = ok and result["trace"]["slo"]["passed"]
    print(
        f"live {result['scenario']}: {'PASS' if ok else 'FAIL'} "
        f"(n={result['num_nodes']}, seed={result['seed']})"
    )
    print(
        f"  eventual delivery  {result['eventual_delivery_ratio']:.4f}  "
        f"({result['delivered_live']} live + {result['recovered_catchup']} caught up "
        f"of {result['intended_pairs']} intended pairs)"
    )
    print(
        f"  degraded           {result['shed_pairs']} shed to catch-up, "
        f"{result['pending_catchup']} still pending, "
        f"{result['evicted_catchup']} evicted, "
        f"{result['subscriber_dead']} dead subscribers, "
        f"{result['unaccounted']} unaccounted"
    )
    conv = result["convergence_s"]
    membership = (
        f"reconverged {conv:.2f}s after the last fault"
        if result["membership_converged"] and conv is not None
        else ("converged" if result["membership_converged"] else "NOT converged")
    )
    print(f"  membership         {membership}")
    print(f"  overlay doctor     {'clean' if result['doctor_ok'] else 'VIOLATIONS'}")
    if result["gave_up_nodes"]:
        print(f"  supervisor         gave up on nodes {result['gave_up_nodes']}")
    if args.trace:
        t = result["trace"]
        print(
            f"  causal chains      {t['complete_chains']}/{t['traces']} complete "
            f"({t['complete_chain_ratio']:.2%}), {t['orphan_spans']} orphans"
        )
        print(
            f"  chain latency      p50 {t['latency_ms']['p50']:.1f} ms, "
            f"p99 {t['latency_ms']['p99']:.1f} ms; hops p99 {t['hops']['p99']:g}"
        )
        _print_objectives(t["slo"]["objectives"], label="slo ")

    if args.telemetry:
        from repro.telemetry.export import write_telemetry
        from repro.util.atomicio import atomic_write_json

        meta = {"live_scenario": name, "seed": seed, "num_nodes": nodes}
        extra_files = ["live.json"]
        if not ok:
            # Acceptance failure: persist the flight recorders (a traced
            # run's) so CI can upload per-node evidence beside the traces.
            if cluster.dump_flight("acceptance_failure"):
                extra_files.append("flight.json")
        elif cluster.incidents:
            extra_files.append("flight.json")
        paths = write_telemetry(
            args.telemetry,
            registry,
            tracer=cluster.tracer,
            meta=meta,
            provenance={"root_seed": seed},
        )
        atomic_write_json(
            os.path.join(args.telemetry, "live.json"), result, indent=2, sort_keys=True
        )
        print(
            f"[telemetry written to {args.telemetry}: "
            f"{', '.join(sorted(paths) + sorted(extra_files))}]",
            file=sys.stderr,
        )
    return 0 if ok else 1


def _run_trace(args) -> int:
    """Render the causal trees in a telemetry dir (either runtime's spans)."""
    from repro.telemetry.report import render_trace_tree

    if not args.dir:
        print(
            "usage: select-repro trace TELEMETRY_DIR [--trace-id ID] [--limit N]",
            file=sys.stderr,
        )
        return 2
    print(render_trace_tree(args.dir, trace_id=args.trace_id, limit=args.limit))
    return 0


def _resume_snapshot_id(config: ExperimentConfig) -> "str | None":
    """Manifest id of the snapshot the run resumes from (None when cold)."""
    if not config.resume_from:
        return None
    from repro.persist import load

    return load(config.resume_from)["manifest"]["snapshot_id"]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "report":
        return _run_report(args)
    if args.experiment == "scenario":
        return _run_scenario(args)
    if args.experiment == "live":
        return _run_live(args)
    if args.experiment == "trace":
        return _run_trace(args)
    if args.experiment == "validate":
        return _run_validate(args)
    try:
        config = config_from_args(args)
    except ConfigurationError as exc:
        parser.error(str(exc))
    if args.experiment == "build":
        return _run_build(args, config)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    # The CLI always times phases through a real registry (perf_counter
    # underneath); only --telemetry installs it process-wide so the
    # instrumented layers start feeding it too.
    registry = MetricsRegistry()
    tracer = Tracer() if args.telemetry else None
    prev_registry = set_registry(registry) if args.telemetry else None
    prev_tracer = set_tracer(tracer) if args.telemetry else None
    try:
        # The grid's experiments share one walk: the first of them walks it for all.
        with grid.shared(names):
            for name in names:
                module = EXPERIMENTS[name]
                with registry.timer(f"experiment.{name}") as timing:
                    rows = module.run(config)
                    print(module.report(config, rows=rows))
                if args.export:
                    from repro.experiments.export import rows_to_csv

                    path = rows_to_csv(rows, os.path.join(args.export, f"{name}.csv"))
                    print(f"[rows exported to {path}]", file=sys.stderr)
                print(f"[{name}: {timing.elapsed:.1f}s]\n", file=sys.stderr)
        if args.telemetry:
            from repro.telemetry.export import write_telemetry

            meta = {
                "experiments": ",".join(names),
                "preset": args.preset,
                "seed": config.seed,
                "num_nodes": config.num_nodes,
                "trials": config.trials,
            }
            provenance = {
                "root_seed": config.seed,
                "config_hash": config.digest(),
                "snapshot_id": _resume_snapshot_id(config),
            }
            paths = write_telemetry(
                args.telemetry, registry, tracer=tracer, meta=meta, provenance=provenance
            )
            print(f"[telemetry written to {args.telemetry}: "
                  f"{', '.join(sorted(paths))}]", file=sys.stderr)
    finally:
        if args.telemetry:
            set_registry(prev_registry)
            set_tracer(prev_tracer)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
