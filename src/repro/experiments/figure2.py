"""Reproduction of Figure 2: the bi-criteria simulation.

"A simulated implementation of a variation of the bi-criteria algorithm has
been realized, and yields the encouraging results of fig. 2, where the
simulation assumed a cluster of 100 machines, parallel and non-parallel jobs,
and two criteria Cmax and sum w_i C_i."

Figure 2 contains two plots, both with the number of tasks (0..1000) on the
x-axis and two curves ("Non Parallel" and "Parallel"):

* the top plot shows the ratio of the achieved ``sum w_i C_i`` to (a lower
  bound on) the optimum -- values roughly between 1.2 and 2.8;
* the bottom plot shows the same ratio for ``Cmax`` -- values roughly between
  1.0 and 2.2.

The reproduction keeps the paper's setup: a 100-machine homogeneous cluster,
the bi-criteria doubling-batch scheduler (with the MRT moldable procedure
inside each batch for the parallel workload, and the same batch structure on
strictly sequential jobs for the non-parallel workload), and ratios computed
against the lower bounds of :mod:`repro.core.bounds`.  Absolute values depend
on the (unknown) workload distribution used by the authors; the *shape* that
must hold -- and that the benchmark and tests verify -- is:

* all ratios stay bounded by small constants (far below the worst-case 4 rho);
* ratios do not blow up as the number of tasks grows (they flatten);
* the makespan ratio stays below ~2.2 and approaches 1 for large task counts
  (many tasks pack well on 100 machines).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.policies.bicriteria import BiCriteriaScheduler
from repro.core.policies.mrt import MRTScheduler
from repro.experiments.harness import run_experiment
from repro.metrics.ratios import RatioReport, schedule_ratios
from repro.workload.models import figure2_workload

RandomState = Union[int, np.random.Generator, None]

#: Task counts used by the paper's x-axis (0 .. 1000); 0 is skipped because a
#: ratio is undefined on an empty instance.
DEFAULT_TASK_COUNTS: Tuple[int, ...] = (50, 100, 200, 400, 600, 800, 1000)

FAMILIES: Tuple[str, str] = ("non_parallel", "parallel")


@dataclass
class Figure2Config:
    """Parameters of the Figure 2 experiment."""

    machine_count: int = 100
    task_counts: Sequence[int] = DEFAULT_TASK_COUNTS
    families: Sequence[str] = FAMILIES
    repetitions: int = 3
    base_seed: int = 2004
    #: Use the fast deadline-aware batch procedure (the default inner
    #: procedure of :class:`BiCriteriaScheduler`) instead of the full MRT
    #: dual approximation inside each batch.  The fast variant is what the
    #: benchmark uses for the larger task counts; at this scale the two give
    #: very close ratios, MRT being slightly better and markedly slower.
    fast_inner: bool = True
    runtime_range: Tuple[float, float] = (1.0, 50.0)

    def scheduler(self) -> BiCriteriaScheduler:
        inner = None if self.fast_inner else MRTScheduler()
        return BiCriteriaScheduler(inner)


@dataclass
class Figure2Point:
    """One point of a Figure 2 curve."""

    family: str
    n_tasks: int
    seed: int
    wici_ratio: float
    cmax_ratio: float
    wici_value: float
    wici_bound: float
    cmax_value: float
    cmax_bound: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "family": self.family,
            "n_tasks": self.n_tasks,
            "seed": self.seed,
            "wici_ratio": self.wici_ratio,
            "cmax_ratio": self.cmax_ratio,
            "wici_value": self.wici_value,
            "wici_bound": self.wici_bound,
            "cmax_value": self.cmax_value,
            "cmax_bound": self.cmax_bound,
        }


def run_figure2_point(
    n_tasks: int,
    family: str,
    *,
    config: Optional[Figure2Config] = None,
    seed: int = 0,
) -> Figure2Point:
    """Run one simulation point (one family, one task count, one seed)."""

    config = config or Figure2Config()
    jobs = figure2_workload(
        n_tasks,
        config.machine_count,
        family=family,
        random_state=seed,
        runtime_range=tuple(config.runtime_range),
    )
    scheduler = config.scheduler()
    schedule = scheduler.schedule(jobs, config.machine_count)
    schedule.validate()
    ratios: RatioReport = schedule_ratios(schedule, jobs, machine_count=config.machine_count)
    return Figure2Point(
        family=family,
        n_tasks=n_tasks,
        seed=seed,
        wici_ratio=ratios.weighted_completion_ratio,
        cmax_ratio=ratios.makespan_ratio,
        wici_value=ratios.weighted_completion,
        wici_bound=ratios.weighted_completion_bound,
        cmax_value=ratios.makespan,
        cmax_bound=ratios.makespan_bound,
    )


def _figure2_cell(seed: int, *, n_tasks: int, family: str, config: Figure2Config) -> Dict[str, float]:
    """One sweep cell (picklable, runs in worker processes)."""

    return run_figure2_point(n_tasks, family, config=config, seed=seed).as_dict()


def run_figure2(
    config: Optional[Figure2Config] = None,
    *,
    executor: object = None,
) -> List[Figure2Point]:
    """Run the full Figure 2 sweep (both families, all task counts, all seeds).

    The sweep goes through :func:`repro.experiments.harness.run_experiment`,
    so it fans out over (family, n_tasks, seed) cells when a parallel
    executor is selected (``executor=`` or the ``REPRO_JOBS`` environment
    variable) while producing the same points in the same order as a serial
    run.
    """

    config = config or Figure2Config()
    result = run_experiment(
        "figure2",
        functools.partial(_figure2_cell, config=config),
        # Sorted parameter names put "family" before "n_tasks", matching the
        # historical family-outer / task-count-inner enumeration order.
        {"family": list(config.families), "n_tasks": list(config.task_counts)},
        repetitions=config.repetitions,
        base_seed=config.base_seed,
        executor=executor,  # type: ignore[arg-type]
    )
    return points_from_rows(result.rows)


#: Row keys carrying one :class:`Figure2Point` (the harness / scenario rows).
POINT_FIELDS: Tuple[str, ...] = (
    "family", "n_tasks", "seed", "wici_ratio", "cmax_ratio",
    "wici_value", "wici_bound", "cmax_value", "cmax_bound",
)


def points_from_rows(rows: Sequence[Dict[str, float]]) -> List[Figure2Point]:
    """Rebuild :class:`Figure2Point` objects from harness / scenario rows."""

    return [Figure2Point(**{name: row[name] for name in POINT_FIELDS}) for row in rows]


def figure2_curves(points: Sequence[Figure2Point]) -> Dict[str, Dict[str, Dict[int, float]]]:
    """Average the points into the four curves of Figure 2.

    Returns ``{"wici": {family: {n_tasks: mean ratio}}, "cmax": {...}}``.
    """

    curves: Dict[str, Dict[str, Dict[int, List[float]]]] = {"wici": {}, "cmax": {}}
    for point in points:
        curves["wici"].setdefault(point.family, {}).setdefault(point.n_tasks, []).append(
            point.wici_ratio
        )
        curves["cmax"].setdefault(point.family, {}).setdefault(point.n_tasks, []).append(
            point.cmax_ratio
        )
    averaged: Dict[str, Dict[str, Dict[int, float]]] = {"wici": {}, "cmax": {}}
    for criterion, families in curves.items():
        for family, by_n in families.items():
            averaged[criterion][family] = {
                n: sum(values) / len(values) for n, values in sorted(by_n.items())
            }
    return averaged
