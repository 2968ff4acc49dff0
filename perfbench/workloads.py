"""The benchmark's workloads and how one pass of a workload runs.

A *pass* is one complete unit of user work: every scenario sweep of the
workload, run back to back through :func:`repro.scenarios.run_scenario`
(closed loop, one client).  The ``campaign`` workload additionally streams
its cells through an ``inproc://`` fleet into a fresh JSONL campaign store
and then audits the store with every named query and ``validate_store``.

This module imports nothing from ``repro`` at import time, so the set-up
probe (:mod:`perfbench.probe`) can time the program's own imports.
"""

from __future__ import annotations

import contextlib
import importlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: Campaign label of the rows the ``campaign`` workload writes.
CAMPAIGN = "perfbench"

#: Every metric-taking named query reads this column (present in the rows of
#: most on-line, off-line and grid scenarios).
QUERY_METRIC = "makespan"

#: Parameters for the named queries that require some.
QUERY_PARAMS: Dict[str, Dict[str, Any]] = {
    "metric-summary": {"metric": QUERY_METRIC},
    "policy-compare": {"metric": QUERY_METRIC},
    "compare": {"metric": QUERY_METRIC, "campaign_a": CAMPAIGN, "campaign_b": CAMPAIGN},
}

#: The ``campaign`` fleet has one coroutine worker: cells then never overlap
#: under the interpreter lock, so per-cell self times add up to the wall and
#: the fleet's per-cell dispatch cost is what the workload measures.
FLEET_WORKERS = 1


@dataclass(frozen=True)
class Workload:
    """A named set of scenario sweeps, run as one pass."""

    name: str
    scenarios: Tuple[str, ...]
    #: Run each scenario at its smoke tier instead of the full tier.
    smoke: bool = False
    #: Route the sweeps through an inproc fleet into a campaign store, then
    #: run every named query and the store validation.
    campaign: bool = False
    #: Each sweep runs this many times its registered repetitions (seeds
    #: ``seed + 0 .. seed + n - 1`` as usual): more independent instances
    #: per pass, so the pass's cost varies less from one seed to the next.
    repetition_factor: int = 1

    @property
    def modules(self) -> Tuple[str, ...]:
        """What a user's command imports before it submits the first cell."""

        base = ("repro", "repro.scenarios")
        return base + (("repro.store", "repro.distributed") if self.campaign else ())

    def import_program(self) -> None:
        for module in self.modules:
            importlib.import_module(module)

    def resolve(self, seed: int) -> List[Any]:
        """The effective specs of one pass.

        ``seed`` offsets every spec's registered seed, so ``0`` runs the
        registered seeds (the ones whose digests are pinned) and any other
        value is a held-out seed the specs have not been tuned on.
        """

        from repro.scenarios import get

        specs = []
        for name in self.scenarios:
            spec = get(name)
            if self.smoke:
                spec = spec.smoke_spec()
            specs.append(spec.evolve(
                seed=spec.seed + seed, repetitions=spec.repetitions * self.repetition_factor
            ))
        return specs


#: Seed-to-seed cost differences of the full-tier sweeps (about 7-9% of a
#: pass, measured with host speed rescaled) shrink by sqrt(3) at three times
#: the registered repetitions.
FULL_TIER_REPETITIONS = 3

OFFLINE = Workload(
    "offline",
    ("fig2.bicriteria", "mix.rigid-moldable", "cluster.offline-panel", "dlt.multiround-scaling"),
    repetition_factor=FULL_TIER_REPETITIONS,
)
ONLINE = Workload(
    "online",
    (
        "cluster.policy-panel", "cluster.policy-switch", "cluster.bursty-campaigns",
        "cluster.diurnal-load", "cluster.load-ramp", "cluster.community-streams",
        "cluster.rigid-backfill-mix", "swf.replay",
    ),
    repetition_factor=FULL_TIER_REPETITIONS,
)
GRID = Workload(
    "grid",
    (
        "fig3.ciment.centralized", "grid.node-churn", "grid.decentralized.exchange",
        "grid.hetero-mix", "grid.hetero-policies",
    ),
    repetition_factor=FULL_TIER_REPETITIONS,
)
CAMPAIGN_WORKLOAD = Workload(
    "campaign",
    OFFLINE.scenarios + ONLINE.scenarios + GRID.scenarios,
    smoke=True,
    campaign=True,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (OFFLINE, ONLINE, GRID, CAMPAIGN_WORKLOAD)
}


@dataclass
class Sweep:
    """One scenario sweep of a pass."""

    scenario: str
    result: Any  # repro.experiments.harness.ExperimentResult
    wall_s: float


@dataclass
class Pass:
    """What one pass did, and the wall time users would have waited for it."""

    sweeps: List[Sweep] = field(default_factory=list)
    #: Wall of the timed region: the sweeps plus, on ``campaign``, the reads.
    wall_s: float = 0.0
    # -- campaign only ----------------------------------------------------
    read_wall_s: float = 0.0
    queries: int = 0
    store_rows: List[Dict[str, Any]] = field(default_factory=list)
    validation: List[Any] = field(default_factory=list)
    rows_written: int = 0
    store_bytes: int = 0
    scheduler_stats: Any = None

    @property
    def cells(self) -> int:
        return sum(len(sweep.result.outcomes) for sweep in self.sweeps)


def run_pass(workload: Workload, specs: List[Any], work_dir: Path, tracer: Any = None) -> Pass:
    """Run one pass; ``tracer`` (a :class:`perfbench.layers.Tracer`) opens
    the benchmark-side root spans when the pass is traced."""

    if workload.campaign:
        return _campaign_pass(specs, work_dir, tracer)
    from repro.scenarios import run_scenario

    outcome = Pass()
    for spec in specs:
        with _root(tracer, "experiments"):
            start = time.perf_counter()
            result = run_scenario(spec, executor="serial", capture_errors=True)
            wall = time.perf_counter() - start
        outcome.sweeps.append(Sweep(spec.name, result, wall))
        outcome.wall_s += wall
    return outcome


def _campaign_pass(specs: List[Any], work_dir: Path, tracer: Any) -> Pass:
    from repro.distributed import inproc_fleet
    from repro.scenarios import run_scenario
    from repro.store import QUERIES, CampaignStore, run_query, validate_store

    outcome = Pass()
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=work_dir))
    try:
        store = CampaignStore(store_dir, campaign=CAMPAIGN, fmt="jsonl")
        executor = inproc_fleet(FLEET_WORKERS)
        for spec in specs:
            with _root(tracer, "experiments"):
                start = time.perf_counter()
                result = run_scenario(spec, executor=executor, sink=store, capture_errors=True)
                wall = time.perf_counter() - start
            outcome.sweeps.append(Sweep(spec.name, result, wall))
            outcome.wall_s += wall
        outcome.scheduler_stats = executor.stats

        start = time.perf_counter()
        for name in sorted(QUERIES):
            with _root(tracer, "store.query"):
                rows = run_query(store, name, QUERY_PARAMS.get(name), engine="py")
            if name == "rows":
                outcome.store_rows = rows
        with _root(tracer, "store.query"):
            outcome.validation = validate_store(store, engine="py")
        outcome.read_wall_s = time.perf_counter() - start
        outcome.wall_s += outcome.read_wall_s
        outcome.queries = len(QUERIES) + 1

        outcome.rows_written = store.stats.appended
        outcome.store_bytes = sum(
            path.stat().st_size for path in store_dir.rglob("*") if path.is_file()
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return outcome


def _root(tracer: Any, layer: str) -> Any:
    return tracer.root(layer) if tracer is not None else contextlib.nullcontext()
