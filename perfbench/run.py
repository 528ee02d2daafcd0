#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bfs-snowball --seed 7 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see BENCHMARK.json and perfbench/README.md).  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when a result was printed.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

WORKLOADS = ("ingest-edge", "bfs-snowball", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the suites' seed, 7)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # Never measure some other installed copy of the program.
        print(f"perfbench: no program source at {ROOT}/src/repro",
              file=sys.stderr)
        return 2

    from perfbench.common import DEFAULT_SEED, emit, environment

    seed = DEFAULT_SEED if args.seed is None else args.seed
    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        from perfbench import servework

        metrics, notes, checks = servework.run(seed, args.seconds, trace)
        kernel = servework.kernel()
    else:
        from perfbench import simwork
        from repro.arch.kernels import resolve_kernel

        scenario = simwork.workloads()[args.workload]
        metrics, notes, checks = simwork.run(scenario, args.seconds, trace)
        kernel = resolve_kernel(scenario.chip.to_chip_config())
    emit(args.workload, environment(seed, kernel), metrics, notes, checks,
         trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
