"""Set-up probe: one fresh interpreter's way to its first submitted cell.

Run as ``python3 -m perfbench.probe WORKLOAD SEED`` from the repository
root with ``src`` on ``PYTHONPATH``.  Times, from this module's first
statement, the imports a user's command makes (``repro``, the scenario
registry, and on ``campaign`` the store and distributed layers) and then the
resolution of the workload's specs, and prints them as one JSON line.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list) -> int:
    from perfbench.workloads import WORKLOADS

    workload, seed = WORKLOADS[argv[0]], int(argv[1])
    workload.import_program()
    imported = time.perf_counter()
    specs = workload.resolve(seed)
    resolved = time.perf_counter()
    print(json.dumps({
        "import_s": imported - START,
        "resolve_s": resolved - imported,
        "specs": len(specs),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
