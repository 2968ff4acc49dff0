"""Golden-digest equivalence: canonical digests of simulator behavior.

The unified runtime refactor (and any future change to the simulation hot
path) must not change simulator *behavior*.  This module pins behavior with
SHA-256 digests over canonical, repr-exact serializations of

* the result of one fixed, seeded run of each legacy simulator entry point
  (:class:`~repro.simulation.cluster_sim.ClusterSimulator`,
  :class:`~repro.simulation.grid_sim.CentralizedGridSimulator`,
  :class:`~repro.simulation.decentralized.DecentralizedGridSimulator`),
  including the full event trace,
* one fixed case per workload class: raw event-kernel churn, the Figure-2
  sweep, an on-line cluster, the CIMENT grid and a DLT multi-round
  distribution, and
* the result rows of every registered scenario's smoke tier.

``python -m repro.runtime.golden capture [path]`` records the digests of the
current code; ``tests/runtime/test_equivalence.py`` recomputes them and
fails on any drift.  The committed ``tests/runtime/goldens.json`` was
captured from the pre-refactor simulators, so matching it proves the
runtime reproduces the legacy event loops bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

#: Default location of the committed golden file, relative to the repo root.
DEFAULT_GOLDEN_PATH = "tests/runtime/goldens.json"


def digest_of(payload: Any) -> str:
    """Deterministic SHA-256 over an arbitrary payload (repr for non-JSON)."""

    blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Canonical serializations
# ---------------------------------------------------------------------------


def schedule_payload(schedule: Any) -> List[Any]:
    """Repr-exact serialization of a :class:`~repro.core.allocation.Schedule`."""

    return [
        (
            entry.job.name,
            repr(entry.start),
            list(entry.processors),
            repr(entry.allocation.runtime),
        )
        for entry in schedule
    ]


def trace_payload(trace: Any) -> List[Any]:
    """Repr-exact serialization of a :class:`~repro.simulation.tracing.Trace`."""

    return [
        (repr(e.time), e.kind, e.job, e.cluster, list(e.processors), e.info)
        for e in trace
    ]


def cluster_result_payload(result: Any) -> Dict[str, Any]:
    """Canonical payload of a single-cluster simulation result."""

    return {
        "policy": result.policy,
        "machine_count": result.machine_count,
        "schedule": schedule_payload(result.schedule),
        "trace": trace_payload(result.trace),
        "criteria": {k: repr(v) for k, v in result.criteria.as_dict().items()},
        "ratios": {k: repr(v) for k, v in result.ratios.as_dict().items()},
    }


def centralized_result_payload(result: Any) -> Dict[str, Any]:
    """Canonical payload of a centralized (best-effort) grid result."""

    return {
        "horizon": repr(result.horizon),
        "kills": result.kills,
        "launches": result.launches,
        "bag_completion": {k: repr(v) for k, v in sorted(result.bag_completion.items())},
        "runs_completed": dict(sorted(result.runs_completed.items())),
        "utilization": {k: repr(v) for k, v in sorted(result.utilization.items())},
        "schedules": {
            name: schedule_payload(s) for name, s in sorted(result.local_schedules.items())
        },
        "criteria": {
            name: {k: repr(v) for k, v in c.as_dict().items()}
            for name, c in sorted(result.local_criteria.items())
        },
        "trace": trace_payload(result.trace),
    }


def decentralized_result_payload(result: Any) -> Dict[str, Any]:
    """Canonical payload of a decentralized (load-exchange) grid result."""

    return {
        "horizon": repr(result.horizon),
        "migrations": result.migrations,
        "migrated_jobs": list(result.migrated_jobs),
        "mean_flow": repr(result.mean_flow),
        "max_flow": repr(result.max_flow),
        "fairness": {k: repr(v) for k, v in sorted(result.fairness.as_dict().items())},
        "schedules": {
            name: schedule_payload(s) for name, s in sorted(result.schedules.items())
        },
        "criteria": {
            name: {k: repr(v) for k, v in c.as_dict().items()}
            for name, c in sorted(result.criteria.items())
        },
        "trace": trace_payload(result.trace),
    }


# ---------------------------------------------------------------------------
# The three canonical legacy-simulator cases
# ---------------------------------------------------------------------------


def run_cluster_case() -> Dict[str, Any]:
    """Fixed seeded single-cluster run exercising all three queue policies."""

    from repro.simulation.cluster_sim import ClusterSimulator
    from repro.workload.communities import community_workload

    jobs = community_workload("computer-science", 120, 64, random_state=7)
    payload = {}
    for policy in ("fifo", "backfill", "smallest-first"):
        result = ClusterSimulator(64, policy=policy).run(jobs)
        payload[policy] = cluster_result_payload(result)
    return payload


def _ciment_run(jobs_per_community: int) -> Any:
    """Seeded CIMENT grid run: community workloads plus best-effort bags."""

    from repro.platform.ciment import ciment_grid
    from repro.simulation.grid_sim import CentralizedGridSimulator
    from repro.workload.communities import community_workload, grid_workload

    grid = ciment_grid()
    local = {}
    bags = []
    for index, cluster in enumerate(sorted(grid, key=lambda c: c.name)):
        local[cluster.name] = community_workload(
            cluster.community,
            jobs_per_community,
            cluster.processor_count,
            random_state=100 + index,
        )
        bags.extend(grid_workload(cluster.community, random_state=200 + index))
    return CentralizedGridSimulator(grid, local_policy="backfill").run(local, bags)


def run_centralized_case() -> Dict[str, Any]:
    """Fixed seeded CIMENT run with best-effort bags, kills and resubmits."""

    return centralized_result_payload(_ciment_run(6))


def run_decentralized_case() -> Dict[str, Any]:
    """Fixed seeded two-cluster run with migrations under load imbalance."""

    from repro.platform.generators import homogeneous_cluster
    from repro.platform.grid import GridLink, LightGrid
    from repro.simulation.decentralized import DecentralizedGridSimulator
    from repro.workload.arrivals import poisson_arrivals
    from repro.workload.models import generate_moldable_jobs

    grid = LightGrid(
        "golden-duo",
        [
            homogeneous_cluster("busy", 8, community="busy-community"),
            homogeneous_cluster("idle", 8, community="idle-community"),
        ],
        [GridLink("busy", "idle", bandwidth=1000.0, latency=0.01)],
    )
    jobs = generate_moldable_jobs(40, 8, random_state=11)
    jobs = poisson_arrivals(jobs, rate=4.0, random_state=11)
    simulator = DecentralizedGridSimulator(grid, imbalance_threshold=1.0)
    result = simulator.run({"busy": jobs, "idle": []})
    return decentralized_result_payload(result)


# ---------------------------------------------------------------------------
# One case per workload class: kernel churn, the Figure-2 sweep, an on-line
# cluster, the CIMENT grid of section 5.2 and a DLT multi-round distribution
# ---------------------------------------------------------------------------


def run_kernel_churn_case(n_events: int = 60_000, chains: int = 64) -> Dict[str, Any]:
    """Self-rescheduling timer chains hammering the event queue.

    ``chains`` concurrent callbacks each reschedule themselves with seeded
    pseudo-random delays quantised to 0.25 time units, so many events tie on
    the same timestamp and the (time, priority, seq) tie-break, cancellation
    and same-time dispatch paths are all exercised.  Every chain also
    schedules-and-cancels a decoy event each step.
    """

    import random

    from repro.simulation.engine import Simulator

    sim = Simulator()
    rng = random.Random(20040426)
    delays = [round(rng.random() * 16.0) * 0.25 + 0.25 for _ in range(1024)]
    per_chain = n_events // chains
    checksum: List[str] = []
    fired = [0]

    def make_chain(index: int) -> Any:
        remaining = [per_chain]

        def tick() -> None:
            fired[0] += 1
            if fired[0] % 97 == 0:
                checksum.append(repr(sim.now))
            remaining[0] -= 1
            if remaining[0] > 0:
                slot = (index * 31 + remaining[0]) % 1024
                decoy = sim.schedule(delays[(slot + 7) % 1024], _never)
                sim.cancel(decoy)
                sim.schedule(delays[slot], tick, priority=index % 3)

        return tick

    def _never() -> None:  # cancelled decoys must not fire
        raise AssertionError("cancelled event fired")

    for index in range(chains):
        sim.schedule(delays[index % 1024], make_chain(index), priority=index % 3)
    sim.run()
    return {"now": repr(sim.now), "fired": fired[0], "checksum": checksum}


def run_figure2_case() -> List[Any]:
    """The Figure-2 bi-criteria sweep (both families) through the harness."""

    from repro.experiments.figure2 import Figure2Config, run_figure2

    config = Figure2Config(task_counts=(50, 100), repetitions=1)
    points = run_figure2(config, executor="serial")
    return [
        (p.family, p.n_tasks, p.seed, repr(p.wici_ratio), repr(p.cmax_ratio))
        for p in points
    ]


def run_cluster_online_case() -> Dict[str, Any]:
    """On-line single-cluster simulation of 300 jobs under backfilling."""

    from repro.simulation.cluster_sim import ClusterSimulator
    from repro.workload.communities import community_workload

    jobs = community_workload("computer-science", 300, 64, random_state=7)
    result = ClusterSimulator(64, policy="backfill").run(jobs)
    return {
        "makespan": repr(result.criteria.makespan),
        "trace": [(repr(e.time), e.kind, e.job, e.processors) for e in result.trace],
    }


def run_ciment_case() -> Dict[str, Any]:
    """The CIMENT grid at 12 jobs per community: fills, kills, resubmits."""

    result = _ciment_run(12)
    return {
        "horizon": repr(result.horizon),
        "kills": result.kills,
        "launches": result.launches,
        "runs_completed": sorted(result.runs_completed.items()),
        "trace": [
            (repr(e.time), e.kind, e.job, e.cluster, e.processors, e.info)
            for e in result.trace
        ],
    }


def run_dlt_multiround_case() -> Dict[str, Any]:
    """Multi-round divisible load over 32 workers, best of up to 12 rounds."""

    from repro.core.dlt.multiround import optimize_round_count
    from repro.core.dlt.platform import DLTPlatform, DLTWorker

    workers = [
        DLTWorker(
            name=f"w{i:03d}",
            compute_time=1.0 + 0.07 * (i % 5),
            comm_time=0.01 + 0.003 * (i % 7),
            latency=0.05 * (i % 3),
        )
        for i in range(32)
    ]
    best = optimize_round_count(500.0, DLTPlatform(workers), max_rounds=12)
    return {
        "rounds": best.rounds,
        "makespan": repr(best.makespan),
        "round_loads": [repr(v) for v in best.round_loads],
        "idle_time": repr(best.idle_time),
    }


SIMULATOR_CASES = {
    "cluster": run_cluster_case,
    "grid-centralized": run_centralized_case,
    "grid-decentralized": run_decentralized_case,
    "kernel.churn": run_kernel_churn_case,
    "cluster.figure2": run_figure2_case,
    "cluster.online": run_cluster_online_case,
    "grid.ciment": run_ciment_case,
    "dlt.multiround": run_dlt_multiround_case,
}


def simulator_digests() -> Dict[str, str]:
    """Digest of each canonical legacy-simulator case."""

    return {name: digest_of(case()) for name, case in SIMULATOR_CASES.items()}


def scenario_digests(names: Any = None, *, executor: Any = None) -> Dict[str, str]:
    """Smoke-tier row digests of the registered scenarios.

    ``names=None`` runs every registered scenario; a golden comparison
    should pass the names stored in the golden file so newly registered
    scenarios do not need retroactive goldens.
    """

    import repro.scenarios as scenarios
    from repro.scenarios.composer import rows_digest, run_scenario

    digests = {}
    for name in names if names is not None else scenarios.names():
        spec = scenarios.get(name)
        result = run_scenario(spec, smoke=True, executor=executor)
        digests[name] = rows_digest(result.rows)
    return digests


def capture() -> Dict[str, Any]:
    """Compute the full golden payload for the current code."""

    return {
        "simulators": simulator_digests(),
        "scenarios": scenario_digests(),
    }


def main(argv: Any = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] != "capture":
        print("usage: python -m repro.runtime.golden capture [path]", file=sys.stderr)
        return 2
    path = Path(argv[1] if len(argv) > 1 else DEFAULT_GOLDEN_PATH)
    payload = capture()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    total = len(payload["simulators"]) + len(payload["scenarios"])
    print(f"wrote {total} golden digests to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
