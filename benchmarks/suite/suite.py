"""Suite driver: every workload in a fresh child process, results to a file.

    python3 benchmarks/suite/suite.py --seed 1,2 --repeat 2 --out results/new.json
    python3 benchmarks/suite/suite.py --smoke --traced --out out/smoke.json

Each child is ``run.py`` exactly as the benchmark driver calls it; this
file only collects what the children print into the JSON ``compare.py``
reads, with an environment block beside the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from harness import ROOT, SUITE_DIR, load_spec

SCHEMA = "select-repro/suite/v1"
#: the measuring window of ``--smoke`` runs, seconds.
SMOKE_SECONDS = 3


def run_child(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """One workload in a fresh interpreter; raises if it exits non-zero."""
    command = [
        sys.executable,
        os.path.join(SUITE_DIR, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(traced)),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    t0 = time.perf_counter()
    child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall_s = time.perf_counter() - t0
    if child.returncode != 0:
        raise RuntimeError(
            f"{workload} seed={seed} exited {child.returncode}:\n{child.stderr.strip()}"
        )
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return {
        "workload": workload,
        "seed": seed,
        "wall_s": wall_s,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "detail": detail,
    }


def environment() -> dict:
    import numpy

    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git.stdout.strip() if git.returncode == 0 else "unknown",
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", default="1", help="run seed, or several: 1,2")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload and seed")
    parser.add_argument("--traced", action="store_true", help="--trace 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code paths")
    parser.add_argument("--out", required=True, help="results file to write")
    args = parser.parse_args(argv)

    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    declared = spec["per_layer" if args.traced else "end_to_end"]
    runs = []
    for seed in (int(s) for s in args.seed.split(",")):
        for repeat in range(args.repeat):
            for workload in names:
                try:
                    run = run_child(workload, seed, seconds, args.traced, args.smoke)
                except RuntimeError as failure:
                    print(failure, file=sys.stderr)
                    return 1
                run["repeat"] = repeat
                runs.append(run)
                print(f"{workload} seed={seed} repeat={repeat}: {run['wall_s']:.1f} s", flush=True)
    report = {
        "schema": SCHEMA,
        "environment": environment(),
        "traced": args.traced,
        "smoke": args.smoke,
        "run_seconds": seconds,
        "units": {m["name"]: m["unit"] for m in declared},
        "runs": runs,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(runs)} runs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
