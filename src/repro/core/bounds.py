"""Lower bounds used to compute performance ratios.

The paper's Figure 2 plots the *ratio* of the criterion achieved by the
bi-criteria algorithm over (an estimate of) the optimal value.  Since the
optimum is intractable, the standard practice -- which the dual-approximation
analysis of section 4.1 also relies on -- is to compare against easily
computable lower bounds:

* for the makespan of moldable jobs on ``m`` identical processors

  ``LB_Cmax = max( max_j p_j^min , (1/m) sum_j W_j^min , max_j r_j + p_j^min )``

  where ``p_j^min`` is the best achievable runtime of job ``j`` and
  ``W_j^min`` its minimal work;

* for the (weighted) sum of completion times, the classical single-machine
  relaxation: the whole platform is viewed as one machine of speed ``m``,
  jobs become sequential with processing time ``W_j^min / m``, and the
  optimal order is WSPT (weighted shortest processing time first).  A second
  bound -- each job cannot complete before ``r_j + p_j^min`` -- is combined
  with it by taking, for each job, the larger of its two completion-time
  estimates.

These bounds are deliberately conservative; ratios reported by the benchmarks
are therefore *upper estimates* of the true approximation factor, exactly as
in the paper.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from repro.core.job import Job, MoldableJob, ParametricSweep, RigidJob, DivisibleJob


def _min_runtime(job: Job) -> float:
    """Best achievable runtime of a job (critical-path style bound)."""

    if isinstance(job, MoldableJob):
        return job.best_runtime()
    if isinstance(job, RigidJob):
        return job.duration
    if isinstance(job, ParametricSweep):
        return job.run_time
    if isinstance(job, DivisibleJob):
        return 0.0  # arbitrarily divisible: no intrinsic critical path
    raise TypeError(f"unsupported job type {type(job)!r}")


def _min_work(job: Job) -> float:
    if isinstance(job, MoldableJob):
        return job.min_work()
    if isinstance(job, RigidJob):
        return job.nbproc * job.duration
    if isinstance(job, ParametricSweep):
        return job.total_work
    if isinstance(job, DivisibleJob):
        return job.load
    raise TypeError(f"unsupported job type {type(job)!r}")


def min_runtime(job: Job) -> float:
    """Public alias of the per-job critical-path bound."""

    return _min_runtime(job)


def min_work(job: Job) -> float:
    """Public alias of the per-job minimal-work bound."""

    return _min_work(job)


def _columns(jobs: Sequence[Job]) -> Tuple[List[float], List[float], List[float]]:
    """Per-job ``p_j^min``, ``W_j^min`` and ``r_j + p_j^min``, in input order.

    Every bound below reads these three columns, so an instance pays one
    type dispatch per job however many bounds it asks for.
    """

    runtime = [_min_runtime(j) for j in jobs]
    work = [_min_work(j) for j in jobs]
    ready = [j.release_date + p for j, p in zip(jobs, runtime)]
    return runtime, work, ready


def _check_machine_count(machine_count: int) -> None:
    if machine_count < 1:
        raise ValueError("machine_count must be >= 1")


def _makespan_bound(
    runtime: List[float], work: List[float], ready: List[float], machine_count: int
) -> float:
    if not runtime:
        return 0.0
    return max(max(runtime), sum(work) / machine_count, max(ready))


def _wspt_completion_bounds(
    jobs: Sequence[Job], work: List[float], ready: List[float], machine_count: int
) -> List[Tuple[int, float]]:
    """``(job index, completion bound)`` pairs in WSPT order."""

    order = sorted(
        range(len(jobs)),
        key=lambda i: (work[i] / max(jobs[i].weight, 1e-12), jobs[i].name),
    )
    bounds: List[Tuple[int, float]] = []
    elapsed = 0.0
    for i in order:
        elapsed += work[i] / machine_count
        bounds.append((i, max(elapsed, ready[i])))
    return bounds


def _weighted_completion_bound(
    jobs: Sequence[Job], work: List[float], ready: List[float], machine_count: int
) -> float:
    return sum(
        jobs[i].weight * c
        for i, c in _wspt_completion_bounds(jobs, work, ready, machine_count)
    )


def _sum_completion_bound(
    jobs: Sequence[Job], work: List[float], ready: List[float], machine_count: int
) -> float:
    order = sorted(range(len(jobs)), key=lambda i: (work[i], jobs[i].name))
    total = 0.0
    elapsed = 0.0
    for i in order:
        elapsed += work[i] / machine_count
        total += max(elapsed, ready[i])
    return total


def _stretch_bound(runtime: List[float]) -> float:
    if not runtime:
        return 0.0
    return sum(runtime) / len(runtime)


def instance_lower_bounds(
    jobs: Iterable[Job], machine_count: int
) -> Tuple[float, float, float, float]:
    """The makespan, ``sum w_j C_j``, ``sum C_j`` and mean-stretch bounds at once.

    Each value equals the one of the dedicated function below; the per-job
    columns are computed once for all four.
    """

    _check_machine_count(machine_count)
    jobs = list(jobs)
    runtime, work, ready = _columns(jobs)
    return (
        _makespan_bound(runtime, work, ready, machine_count),
        _weighted_completion_bound(jobs, work, ready, machine_count),
        _sum_completion_bound(jobs, work, ready, machine_count),
        _stretch_bound(runtime),
    )


def makespan_lower_bound(jobs: Iterable[Job], machine_count: int) -> float:
    """Lower bound on ``Cmax`` for any schedule of ``jobs`` on ``machine_count`` processors."""

    _check_machine_count(machine_count)
    runtime, work, ready = _columns(list(jobs))
    return _makespan_bound(runtime, work, ready, machine_count)


def completion_time_lower_bounds(
    jobs: Iterable[Job], machine_count: int
) -> List[Tuple[Job, float]]:
    """Per-job lower bounds on completion times (squashed-area relaxation).

    Jobs are relaxed to a single machine of speed ``machine_count`` and
    ordered by WSPT on their minimal work.  The completion time of job ``j``
    in that relaxed schedule, combined with the trivial bound
    ``r_j + p_j^min``, lower-bounds ``C_j`` in *some* optimal-ish sense:
    the resulting ``sum w_j C_j`` is a valid lower bound on the optimum of
    the weighted completion time criterion for the off-line problem without
    release dates, and a standard heuristic bound when release dates are
    present (the release-date term keeps it safe for the dominant jobs).
    """

    _check_machine_count(machine_count)
    jobs = list(jobs)
    _, work, ready = _columns(jobs)
    return [(jobs[i], c) for i, c in _wspt_completion_bounds(jobs, work, ready, machine_count)]


def weighted_completion_lower_bound(jobs: Iterable[Job], machine_count: int) -> float:
    """Lower bound on ``sum_j w_j C_j``."""

    _check_machine_count(machine_count)
    jobs = list(jobs)
    _, work, ready = _columns(jobs)
    return _weighted_completion_bound(jobs, work, ready, machine_count)


def sum_completion_lower_bound(jobs: Iterable[Job], machine_count: int) -> float:
    """Lower bound on ``sum_j C_j`` (unweighted)."""

    jobs = list(jobs)
    _, work, ready = _columns(jobs)
    return _sum_completion_bound(jobs, work, ready, machine_count)


def stretch_lower_bound(jobs: Iterable[Job]) -> float:
    """Trivial lower bound on the mean stretch: each job needs at least ``p_j^min``."""

    runtime, _, _ = _columns(list(jobs))
    return _stretch_bound(runtime)


def divisible_makespan_lower_bound(
    total_load: float,
    worker_rates: Sequence[float],
) -> float:
    """Lower bound on the makespan of a divisible load: perfect sharing, no comms."""

    if total_load < 0:
        raise ValueError("total_load must be >= 0")
    total_rate = sum(worker_rates)
    if total_rate <= 0:
        raise ValueError("at least one worker with positive rate is required")
    return total_load / total_rate


def performance_ratio(value: float, lower_bound: float) -> float:
    """Ratio ``value / lower_bound`` guarded against degenerate bounds."""

    if lower_bound <= 0:
        if value <= 0:
            return 1.0
        return math.inf
    return value / lower_bound
