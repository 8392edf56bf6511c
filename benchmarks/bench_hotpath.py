"""Scale curve: generation and build-to-quiescence time and peak RSS at each network size.

What ``benchmarks/suite/`` cannot run inside its 30-second workloads (it
has routing throughput, round time and the 2k build): one construction per
``--scales`` size, each in a forked child so ``ru_maxrss`` is that build's
own footprint. Every row says whether the build *converged* and in how
many rounds; a build stopped by the ``--max-rounds`` cap fails the run — a
capped build times a different amount of work at every size.

Run::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --scales 2000,20000,100000
    PYTHONPATH=src python benchmarks/bench_hotpath.py --validate BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import time

from repro.core.config import SelectConfig
from repro.core.select import SelectOverlay
from repro.graphs.datasets import load_dataset

BENCH_SCHEMA = "select-repro/bench/v1"


def _forked(fn, *args):
    """Run ``fn(*args)`` in a forked child; returns its result.

    Isolation keeps ``ru_maxrss`` honest: each measured build starts
    from this process's footprint instead of inheriting the peak of
    every build that ran before it.
    """
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def _child() -> None:
        try:
            send.send(("ok", fn(*args)))
        except BaseException as exc:  # noqa: BLE001 — relayed to the parent
            send.send(("err", f"{type(exc).__name__}: {exc}"))
            raise

    proc = ctx.Process(target=_child)
    proc.start()
    send.close()
    try:
        status, payload = recv.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"benchmark child died (exit code {proc.exitcode})") from None
    proc.join()
    if status != "ok":
        raise RuntimeError(f"benchmark child failed: {payload}")
    return payload


def run_scale(num_nodes: int, seed: int, dataset: str, max_rounds: int) -> dict:
    """Generate the graph and build the overlay at one scale; one ``scales[]`` entry."""
    # ``generate_seconds`` times a second call: in a fresh fork the first
    # one is mostly warm-up at 2k (lazy imports, the allocator's first pages).
    load_dataset(dataset, num_nodes=num_nodes, seed=seed)
    start = time.perf_counter()
    graph = load_dataset(dataset, num_nodes=num_nodes, seed=seed)
    generate_seconds = time.perf_counter() - start
    overlay = SelectOverlay(graph, config=SelectConfig(max_rounds=max_rounds))
    start = time.perf_counter()
    overlay.build(seed=seed)
    build_seconds = time.perf_counter() - start
    # In the per-scale fork this is the build's own peak.
    peak_rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "generate_seconds": generate_seconds,
        "build_seconds": build_seconds,
        "gossip_rounds": overlay.iterations,
        # The build's own quiescence test, as `select-repro build` reports it.
        "converged": overlay.converged,
        "peak_rss_kb": peak_rss_kb,
        "kib_per_peer": peak_rss_kb / graph.num_nodes,
    }


REQUIRED_SCALE_FIELDS = (
    "num_nodes", "num_edges", "generate_seconds", "build_seconds", "gossip_rounds", "peak_rss_kb",
    "kib_per_peer",
)


def _validate_scales(scales, problems: list[str]) -> None:
    """Check the ``scales[]`` block (multi-size build curve)."""
    if not isinstance(scales, list) or not scales:
        problems.append("scales must be a non-empty array")
        return
    last = 0
    for idx, entry in enumerate(scales):
        if not isinstance(entry, dict):
            problems.append(f"scales[{idx}] is not an object")
            continue
        for key in REQUIRED_SCALE_FIELDS:
            value = entry.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
                problems.append(f"scales[{idx}].{key} missing or not a non-negative number")
        if not isinstance(entry.get("converged"), bool):
            problems.append(f"scales[{idx}].converged missing or not a boolean")
        nodes = entry.get("num_nodes")
        if isinstance(nodes, (int, float)):
            if nodes <= last:
                problems.append("scales[] must be sorted by strictly increasing num_nodes")
            last = nodes


def validate_report(report: dict) -> list[str]:
    """Schema check for a BENCH_hotpath.json payload; returns problems."""
    problems: list[str] = []
    if report.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {report.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    if report.get("name") != "hotpath":
        problems.append(f"name is {report.get('name')!r}, expected 'hotpath'")
    config = report.get("config")
    for key in ("dataset", "seed", "max_rounds"):
        if not isinstance(config, dict) or not isinstance(config.get(key), (int, str)):
            problems.append(f"config.{key} missing or mistyped")
    _validate_scales(report.get("scales"), problems)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dataset", default="facebook")
    parser.add_argument("--max-rounds", type=int, default=200)
    parser.add_argument("--scales", default="2000", help="comma-separated network sizes")
    parser.add_argument("--out", default="BENCH_hotpath.json")
    parser.add_argument("--validate", metavar="PATH", help="check a report instead of running")
    args = parser.parse_args(argv)

    if args.validate:
        with open(args.validate, encoding="utf-8") as fh:
            problems = validate_report(json.load(fh))
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        if not problems:
            print(f"{args.validate}: ok")
        return 1 if problems else 0

    scales = []
    for size in sorted({int(s) for s in args.scales.split(",") if s.strip()}):
        entry = _forked(run_scale, size, args.seed, args.dataset, args.max_rounds)
        scales.append(entry)
        outcome = "converged in" if entry["converged"] else "CAPPED at"
        print(
            f"scale {entry['num_nodes']:>7} nodes : {entry['generate_seconds']:.3f}s generate, "
            f"{entry['build_seconds']:.3f}s build, {outcome} "
            f"{entry['gossip_rounds']} rounds, {entry['peak_rss_kb'] / 1024:.0f} MiB peak "
            f"({entry['kib_per_peer']:.1f} KiB/peer)"
        )
    config = {"dataset": args.dataset, "seed": args.seed, "max_rounds": args.max_rounds}
    report = {"schema": BENCH_SCHEMA, "name": "hotpath", "config": config, "scales": scales}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[saved to {args.out}]")
    capped = [entry["num_nodes"] for entry in scales if not entry["converged"]]
    if capped:
        print(f"NOT CONVERGED at the --max-rounds {args.max_rounds} cap: {capped}", file=sys.stderr)
    return 1 if capped else 0


if __name__ == "__main__":
    raise SystemExit(main())
