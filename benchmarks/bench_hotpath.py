"""Hot-path benchmark: overlay build, routing throughput, gossip costs.

Establishes the repo's perf baseline trajectory: each run emits a
``BENCH_hotpath.json`` (schema ``select-repro/bench/v1``) recording

* SELECT overlay build time (telemetry phase timer) and mean gossip
  round time,
* routing throughput (routes/sec) with and without lookahead on the
  cached link-view fast path,
* the same throughput measured through a *legacy* router that
  re-materializes every link set from scratch per hop — the pre-cache
  behaviour — so the speedup is recorded in the same file it is
  claimed against,
* a full-network ``strength_vector`` sweep (candidates/sec),
* an optional ``scales[]`` curve (``--scales``): build time and peak
  RSS at each requested network size — each scale runs in a forked
  child so ``ru_maxrss`` is that build's own footprint, not the process
  lifetime max.

The harness asserts that cached and legacy routing produce identical
paths on every measured route before it reports any throughput — the
cache must be a pure performance layer.

Run::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --num-nodes 2000
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

import numpy as np

from repro.core.config import SelectConfig
from repro.core.select import SelectOverlay
from repro.graphs.datasets import load_dataset
from repro.overlay.routing import GreedyRouter
from repro.social.strength import strength_vector
from repro.telemetry.registry import MetricsRegistry, use_registry

BENCH_SCHEMA = "select-repro/bench/v1"


class LegacyGreedyRouter(GreedyRouter):
    """Pre-cache reference: rebuilds each peer's link set on every read.

    Reproduces the behaviour before the :meth:`RoutingTable.link_view`
    cache landed — ``_live_links`` materializes a fresh set per hop and
    the lookahead clause rebuilds one per neighbor per hop — so the
    measured baseline is the actual pre-change code path, timed on the
    same machine and overlay as the cached router.
    """

    @staticmethod
    def _fresh_links(table) -> set:
        out = set(table.long_links)
        if table.predecessor is not None:
            out.add(table.predecessor)
        if table.successor is not None:
            out.add(table.successor)
        out.discard(table.owner)
        return out

    def _live_links(self, u, online):
        links = self._fresh_links(self.overlay.tables[u])
        if online is None:
            return list(links)
        return [w for w in links if online[w]]

    def _lookahead_hop(self, links, dst, online, visited):
        best = None
        tables = self.overlay.tables
        for w in links:
            if w in visited:
                continue
            if dst in self._fresh_links(tables[w]):
                if online is not None and not online[w]:
                    continue
                if best is None or w < best:
                    best = w
        return best


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


def _peak_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _sample_pairs(num_nodes: int, routes: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    src = rng.integers(num_nodes, size=routes)
    dst = rng.integers(num_nodes, size=routes)
    return [(int(s), int(d)) for s, d in zip(src, dst)]


def _routes_per_sec(router, pairs) -> tuple[float, list]:
    start = time.perf_counter()
    results = router.route_many(pairs)
    elapsed = time.perf_counter() - start
    return len(pairs) / elapsed if elapsed > 0 else float("inf"), results


def run_bench(num_nodes: int, routes: int, seed: int, dataset: str, max_rounds: int) -> dict:
    registry = MetricsRegistry()
    rng = np.random.default_rng(seed)
    with use_registry(registry):
        graph = load_dataset(dataset, num_nodes=num_nodes, seed=seed)
        overlay = SelectOverlay(graph, config=SelectConfig(max_rounds=max_rounds))
        with registry.timer("bench.overlay_build") as build_timer:
            overlay.build(seed=seed)
        build_seconds = build_timer.elapsed
        rounds = max(overlay.iterations, 1)

        pairs = _sample_pairs(graph.num_nodes, routes, rng)
        throughput: dict[str, float] = {}
        for mode, lookahead in (("lookahead", True), ("greedy", False)):
            cached = GreedyRouter(overlay, lookahead=lookahead)
            legacy = LegacyGreedyRouter(overlay, lookahead=lookahead)
            # Warm the link-view caches outside the timed window.
            for table in overlay.tables:
                table.link_view()
            with registry.timer(f"bench.routes_{mode}"):
                cached_rps, cached_results = _routes_per_sec(cached, pairs)
            with registry.timer(f"bench.routes_{mode}_legacy"):
                legacy_rps, legacy_results = _routes_per_sec(legacy, pairs)
            mismatched = sum(
                1
                for a, b in zip(cached_results, legacy_results)
                if a.path != b.path or a.delivered != b.delivered
            )
            if mismatched:
                raise AssertionError(
                    f"{mode}: cached router diverged from legacy on "
                    f"{mismatched}/{len(pairs)} routes — the link-view cache "
                    "must not change routing output"
                )
            delivered = sum(1 for r in cached_results if r.delivered)
            throughput[f"routes_per_sec_{mode}"] = cached_rps
            throughput[f"routes_per_sec_{mode}_legacy"] = legacy_rps
            throughput[f"speedup_{mode}"] = cached_rps / legacy_rps if legacy_rps else 0.0
            throughput[f"delivered_fraction_{mode}"] = delivered / len(pairs)

        with registry.timer("bench.strength_sweep") as sweep_timer:
            candidates_scored = 0
            for v in range(graph.num_nodes):
                candidates_scored += strength_vector(graph, v).size
        sweep_seconds = sweep_timer.elapsed

    timers = {
        name: {"sum_seconds": hist.sum, "count": hist.count}
        for name, hist in registry.histograms().items()
    }
    return {
        "schema": BENCH_SCHEMA,
        "name": "hotpath",
        "config": {
            "dataset": dataset,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "routes": routes,
            "seed": seed,
            "max_rounds": max_rounds,
            "k_links": overlay.k_links,
        },
        "metrics": {
            "build_seconds": build_seconds,
            "gossip_rounds": overlay.iterations,
            "gossip_round_seconds_mean": build_seconds / rounds,
            "strength_sweep_seconds": sweep_seconds,
            "strength_candidates_per_sec": (
                candidates_scored / sweep_seconds if sweep_seconds > 0 else float("inf")
            ),
            **throughput,
        },
        "timers": timers,
    }


def run_scale(num_nodes: int, seed: int, dataset: str, max_rounds: int) -> dict:
    """Build the overlay at one scale; one ``scales[]`` entry."""
    graph = load_dataset(dataset, num_nodes=num_nodes, seed=seed)
    overlay = SelectOverlay(graph, config=SelectConfig(max_rounds=max_rounds))
    start = time.perf_counter()
    overlay.build(seed=seed)
    return {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "build_seconds": time.perf_counter() - start,
        "gossip_rounds": overlay.iterations,
        # In the per-scale fork this is the build's own peak.
        "peak_rss_kb": _peak_rss_kb(),
    }


# -- schema validation --------------------------------------------------------

REQUIRED_METRICS = (
    "build_seconds",
    "gossip_rounds",
    "gossip_round_seconds_mean",
    "strength_sweep_seconds",
    "strength_candidates_per_sec",
    "routes_per_sec_lookahead",
    "routes_per_sec_lookahead_legacy",
    "speedup_lookahead",
    "delivered_fraction_lookahead",
    "routes_per_sec_greedy",
    "routes_per_sec_greedy_legacy",
    "speedup_greedy",
    "delivered_fraction_greedy",
)

REQUIRED_CONFIG = ("dataset", "num_nodes", "num_edges", "routes", "seed", "max_rounds", "k_links")

REQUIRED_SCALE_FIELDS = (
    "num_nodes",
    "num_edges",
    "build_seconds",
    "gossip_rounds",
    "peak_rss_kb",
)

def _validate_scales(scales, problems: list[str]) -> None:
    """Check the optional ``scales[]`` block (multi-size build curve)."""
    if not isinstance(scales, list) or not scales:
        problems.append("scales must be a non-empty array when present")
        return
    last = 0
    for idx, entry in enumerate(scales):
        if not isinstance(entry, dict):
            problems.append(f"scales[{idx}] is not an object")
            continue
        for key in REQUIRED_SCALE_FIELDS:
            value = entry.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"scales[{idx}].{key} missing or not a non-negative number")
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
    if not isinstance(config, dict):
        problems.append("config missing or not an object")
    else:
        for key in REQUIRED_CONFIG:
            if not isinstance(config.get(key), (int, str)):
                problems.append(f"config.{key} missing or mistyped")
    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics missing or not an object")
    else:
        for key in REQUIRED_METRICS:
            value = metrics.get(key)
            if not isinstance(value, (int, float)):
                problems.append(f"metrics.{key} missing or not numeric")
            elif value < 0:
                problems.append(f"metrics.{key} is negative ({value})")
    timers = report.get("timers")
    if not isinstance(timers, dict):
        problems.append("timers missing or not an object")
    else:
        for name, entry in timers.items():
            if not isinstance(entry, dict) or "sum_seconds" not in entry or "count" not in entry:
                problems.append(f"timers[{name!r}] must have sum_seconds and count")
    if "scales" in report:
        _validate_scales(report["scales"], problems)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-nodes", type=int, default=2000)
    parser.add_argument("--routes", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dataset", default="facebook")
    parser.add_argument("--max-rounds", type=int, default=30)
    parser.add_argument(
        "--scales",
        default="",
        help="comma-separated network sizes for the scales[] build curve "
        "(e.g. 2000,20000,100000)",
    )
    parser.add_argument("--out", default="BENCH_hotpath.json")
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

    report = run_bench(args.num_nodes, args.routes, args.seed, args.dataset, args.max_rounds)
    if args.scales:
        sizes = sorted({int(s) for s in args.scales.split(",") if s.strip()})
        scales = []
        for size in sizes:
            entry = _forked(run_scale, size, args.seed, args.dataset, args.max_rounds)
            scales.append(entry)
            print(
                f"scale {entry['num_nodes']:>7} nodes : "
                f"{entry['build_seconds']:.3f}s build "
                f"({entry['gossip_rounds']} rounds, "
                f"{entry['peak_rss_kb'] / 1024:.0f} MiB peak)"
            )
        report["scales"] = scales
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    m = report["metrics"]
    print(f"overlay build        : {m['build_seconds']:.3f}s ({m['gossip_rounds']} rounds)")
    print(f"gossip round (mean)  : {m['gossip_round_seconds_mean'] * 1e3:.1f}ms")
    print(
        "routes/sec lookahead : "
        f"{m['routes_per_sec_lookahead']:.0f} vs legacy "
        f"{m['routes_per_sec_lookahead_legacy']:.0f} "
        f"({m['speedup_lookahead']:.2f}x)"
    )
    print(
        "routes/sec greedy    : "
        f"{m['routes_per_sec_greedy']:.0f} vs legacy "
        f"{m['routes_per_sec_greedy_legacy']:.0f} "
        f"({m['speedup_greedy']:.2f}x)"
    )
    print(f"strength sweep       : {m['strength_candidates_per_sec']:.0f} candidates/sec")
    print(f"[saved to {args.out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
