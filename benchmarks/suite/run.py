"""The pipeline benchmark's one command: one workload in this process.

As the benchmark driver calls it, from the root of a checkout::

    python3 benchmarks/suite/run.py --workload build_2k --seed 7 --seconds 30 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (spans
go to ``benchmarks/suite/out/`` as JSONL). A failed correctness gate exits
1 without a result line. ``suite.py`` runs all four workloads, each in a
fresh process; ``README.md`` has the tables.
"""

from __future__ import annotations

import argparse
import os
import sys

from harness import OUT_DIR, ROOT, GateFailure, load_spec


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code paths")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program to benchmark: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # After the path is set: both import the program under test.
    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    run = workloads.Run(
        spec=spec,
        seed=args.seed,
        seconds=args.seconds,
        tracer=tracer,
        sizes=workloads.SMOKE if args.smoke else workloads.FULL,
    )
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    try:
        workloads.WORKLOADS[args.workload](run)
    except GateFailure as failure:
        print(f"correctness gate failed: {failure}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
