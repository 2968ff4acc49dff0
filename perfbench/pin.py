"""Regenerate ``perfbench/digests.json``: every workload's sweep digests at
seed 0, from serial runs.  Run from the repository root after a deliberate
behaviour change (and say so in the change):

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import bench
    from perfbench.checks import DIGESTS_PATH, digest
    from perfbench.workloads import WORKLOADS

    bench.clean_environment()
    bench.import_program()
    from repro.scenarios import run_scenario

    pinned = {}
    for name, workload in WORKLOADS.items():
        pinned[name] = {
            spec.name: digest(run_scenario(spec, executor="serial").rows)
            for spec in workload.resolve(0)
        }
    DIGESTS_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
