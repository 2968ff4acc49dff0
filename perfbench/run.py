"""Benchmark entry point.

    python3 perfbench/run.py --workload {offline,online,grid,campaign}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  Prints one line per metric (name, value,
unit), the environment, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 0 only when
every cell of every pass was correct; exits 2 without a result when the
program's sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every spec's registered seed; 0 = pinned digests")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed passes run (at least 3 passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from traced passes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import bench
    from perfbench.checks import load_pinned
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv)
    bench.clean_environment()
    workload = WORKLOADS[args.workload]
    pinned = load_pinned()[workload.name] if args.seed == 0 else None
    try:
        report = bench.run(workload, args.seed, args.seconds, bool(args.trace), pinned=pinned)
    except bench.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(f"# workload={report.workload} seed={report.seed} trace={int(report.trace)} "
          f"passes={report.passes}")
    print(f"# env {json.dumps(report.environment, sort_keys=True)}")
    for problem in report.problems:
        print(f"# FAILED {problem}")
    for name, (value, unit) in list(report.metrics.items()) + list(report.notes.items()):
        print(f"{name} {value:.6g} {unit}")
    print(report.result_line())
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
