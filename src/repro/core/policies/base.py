"""Common interfaces and helpers shared by the scheduling policies.

Two abstract base classes structure the policy zoo:

* :class:`OfflineScheduler` -- schedules a set of jobs that are all available
  at a common start time (release dates are ignored); this is the classical
  ``P | any | Cmax`` style problem of section 4.1;
* :class:`ReleaseDateScheduler` -- schedules jobs with release dates (the
  on-line problems of sections 4.2-4.4, solved here in the "simulated
  on-line" fashion: the policy only looks at a job once its release date has
  passed in the constructed schedule).

Both produce a :class:`repro.core.allocation.Schedule` on ``machine_count``
identical processors.  Heterogeneity and multi-cluster aspects are handled by
the simulators in :mod:`repro.simulation`, which call these policies per
cluster.

The module also provides :class:`MoldableAllocator` strategies that turn
moldable jobs into rigid ones (the "determine first the number of processors
[...] then solve the corresponding scheduling problem with rigid jobs"
decomposition described in section 4), and a common list-scheduling kernel
used by several policies.
"""

from __future__ import annotations

import abc
import bisect
import math
from typing import Dict, List, Sequence, Tuple

from repro.core.allocation import Schedule
from repro.core.job import Job, MoldableJob, RigidJob


class SchedulerError(RuntimeError):
    """Raised when a policy cannot schedule the given instance."""


class OfflineScheduler(abc.ABC):
    """A policy for jobs that are all available at the same time."""

    #: Human-readable policy name used in reports and benchmark tables.
    name: str = "offline"

    @abc.abstractmethod
    def schedule(
        self, jobs: Sequence[Job], machine_count: int, *, start_time: float = 0.0
    ) -> Schedule:
        """Build a schedule of ``jobs`` on ``machine_count`` identical processors.

        ``start_time`` shifts the whole schedule (used by batch algorithms
        that re-run an off-line policy at the start of every batch).
        Release dates are *ignored* by off-line policies.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ReleaseDateScheduler(abc.ABC):
    """A policy for jobs with release dates (on-line, simulated off-line)."""

    name: str = "online"

    @abc.abstractmethod
    def schedule(self, jobs: Sequence[Job], machine_count: int) -> Schedule:
        """Build a schedule respecting ``job.release_date`` for every job."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------------
# Moldable -> rigid allocation strategies
# ---------------------------------------------------------------------------


class MoldableAllocator:
    """Strategies choosing the processor count of each moldable job.

    The decomposition used throughout section 4 is: first fix the allocation
    (this object), then schedule the resulting rigid jobs (a rigid policy).
    """

    #: Known strategy names (see :meth:`allocate`).
    STRATEGIES = ("sequential", "min_runtime", "best_efficiency", "bounded_efficiency")

    def __init__(self, strategy: str = "bounded_efficiency", *, efficiency_threshold: float = 0.5):
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown allocation strategy {strategy!r}; expected one of {self.STRATEGIES}"
            )
        if not 0 < efficiency_threshold <= 1:
            raise ValueError("efficiency_threshold must be in (0, 1]")
        self.strategy = strategy
        self.efficiency_threshold = efficiency_threshold

    def allocate(self, job: Job, machine_count: int) -> int:
        """Processor count chosen for ``job`` on a platform of ``machine_count``."""

        if isinstance(job, RigidJob):
            if job.nbproc > machine_count:
                raise SchedulerError(
                    f"rigid job {job.name!r} needs {job.nbproc} processors, "
                    f"platform only has {machine_count}"
                )
            return job.nbproc
        if not isinstance(job, MoldableJob):
            raise SchedulerError(f"cannot allocate job of type {type(job)!r}")
        upper = min(job.max_procs, machine_count)
        if job.min_procs > upper:
            raise SchedulerError(
                f"moldable job {job.name!r} needs at least {job.min_procs} "
                f"processors, platform only has {machine_count}"
            )
        candidates = range(job.min_procs, upper + 1)
        if self.strategy == "sequential":
            return job.min_procs
        if self.strategy == "min_runtime":
            return min(candidates, key=lambda k: (job.runtime(k), k))
        if self.strategy == "best_efficiency":
            # Largest allocation whose efficiency is still at least the one
            # of the minimal allocation (i.e. no efficiency loss at all).
            base_eff = job.runtime(job.min_procs) * job.min_procs
            best = job.min_procs
            for k in candidates:
                if k * job.runtime(k) <= base_eff * (1 + 1e-9):
                    best = k
            return best
        # bounded_efficiency: largest allocation keeping parallel efficiency
        # (relative to the minimal allocation) above the threshold.
        base_work = job.runtime(job.min_procs) * job.min_procs
        best = job.min_procs
        for k in candidates:
            efficiency = base_work / (k * job.runtime(k))
            if efficiency >= self.efficiency_threshold - 1e-12:
                best = k
        return best

    def freeze(self, jobs: Sequence[Job], machine_count: int) -> List[Tuple[Job, int]]:
        """Allocate every job, returning (job, nbproc) pairs."""

        return [(job, self.allocate(job, machine_count)) for job in jobs]

    def __repr__(self) -> str:
        return (
            f"MoldableAllocator(strategy={self.strategy!r}, "
            f"efficiency_threshold={self.efficiency_threshold})"
        )


# ---------------------------------------------------------------------------
# Shared list-scheduling kernel
# ---------------------------------------------------------------------------


def list_schedule_rigid(
    allocations: Sequence[Tuple[Job, int]],
    machine_count: int,
    *,
    start_time: float = 0.0,
    respect_release_dates: bool = False,
) -> Schedule:
    """Greedy list scheduling of (job, nbproc) pairs, in the given order.

    Jobs are started as early as possible in list order: the algorithm keeps
    the availability time of every processor and starts the next job of the
    list at the earliest instant where ``nbproc`` processors are
    simultaneously free (and, optionally, after its release date).  This is
    the classical Graham-style list algorithm generalised to multiprocessor
    tasks; it is the packing backend of most policies in this package.
    """

    if machine_count < 1:
        raise ValueError("machine_count must be >= 1")
    # Grouped free list: the distinct availability times in ascending order
    # (``times``) and, for each, the processors free from then on in
    # ascending index order (``free``).  The nbproc earliest processors are
    # whole groups from the front plus a prefix of the last group touched:
    # exactly the (time, index) order of a stable sort of every processor's
    # availability time, and the processor tuple keeps that order.  Only
    # the touched groups are visited, and the released processors join one
    # group, found by bisection.
    first = float(start_time)
    times: List[float] = [first]
    free: Dict[float, List[int]] = {first: list(range(machine_count))}
    schedule = Schedule(machine_count)
    for job, nbproc in allocations:
        if nbproc < 1 or nbproc > machine_count:
            raise SchedulerError(
                f"job {job.name!r}: allocation {nbproc} infeasible on "
                f"{machine_count} processors"
            )
        runtime = job.runtime(nbproc)
        chosen: List[int] = []
        emptied = 0
        while True:
            latest = times[emptied]
            group = free[latest]
            missing = nbproc - len(chosen)
            if len(group) > missing:
                chosen += group[:missing]
                del group[:missing]
                break
            chosen += group
            del free[latest]
            emptied += 1
            if len(group) == missing:
                break
        del times[:emptied]
        # Earliest time at which `nbproc` processors are simultaneously
        # free: the nbproc-th smallest availability time.
        start = max(latest, start_time)
        if respect_release_dates:
            start = max(start, job.release_date)
        end = start + runtime
        released = free.get(end)
        if released is None:
            bisect.insort(times, end)
            free[end] = sorted(chosen)
        else:
            released += chosen
            released.sort()
        schedule.add(job, start, chosen, runtime)
    return schedule


def earliest_start_schedule(
    allocations: Sequence[Tuple[Job, int]],
    machine_count: int,
    *,
    start_time: float = 0.0,
    respect_release_dates: bool = True,
) -> Schedule:
    """List scheduling where, at every step, the job that can start earliest goes first.

    Unlike :func:`list_schedule_rigid` (which respects the list order
    strictly) this kernel re-sorts the remaining jobs by their earliest
    feasible start time; it is used by the conservative-backfilling baseline.
    """

    remaining = list(allocations)
    free_at = [start_time] * machine_count
    schedule = Schedule(machine_count)

    def earliest_start(job: Job, nbproc: int) -> Tuple[float, Tuple[int, ...]]:
        order = sorted(range(machine_count), key=lambda p: (free_at[p], p))
        chosen = tuple(order[:nbproc])
        start = max(free_at[p] for p in chosen)
        if respect_release_dates:
            start = max(start, job.release_date)
        return max(start, start_time), chosen

    while remaining:
        best_idx = None
        best_start = math.inf
        best_procs: Tuple[int, ...] = ()
        for idx, (job, nbproc) in enumerate(remaining):
            start, procs = earliest_start(job, nbproc)
            if start < best_start - 1e-12:
                best_idx, best_start, best_procs = idx, start, procs
        assert best_idx is not None
        job, nbproc = remaining.pop(best_idx)
        runtime = job.runtime(nbproc)
        for p in best_procs:
            free_at[p] = best_start + runtime
        schedule.add(job, best_start, best_procs, runtime)
    return schedule


def sort_jobs(jobs: Sequence[Job], order: str) -> List[Job]:
    """Sort jobs according to a named rule.

    Supported orders: ``"fcfs"`` (release date then name), ``"lpt"`` (longest
    processing time first), ``"spt"`` (shortest first), ``"area"`` (largest
    work first), ``"wspt"`` (weighted shortest processing time first, the
    single-machine-optimal order recalled in section 4.3).
    """

    def runtime_of(job: Job) -> float:
        if isinstance(job, RigidJob):
            return job.duration
        if isinstance(job, MoldableJob):
            return job.sequential_time()
        raise SchedulerError(f"cannot sort job of type {type(job)!r}")

    def work_of(job: Job) -> float:
        if isinstance(job, RigidJob):
            return job.duration * job.nbproc
        if isinstance(job, MoldableJob):
            return job.min_work()
        raise SchedulerError(f"cannot sort job of type {type(job)!r}")

    jobs = list(jobs)
    if order == "fcfs":
        return sorted(jobs, key=lambda j: (j.release_date, j.name))
    if order == "lpt":
        return sorted(jobs, key=lambda j: (-runtime_of(j), j.name))
    if order == "spt":
        return sorted(jobs, key=lambda j: (runtime_of(j), j.name))
    if order == "area":
        return sorted(jobs, key=lambda j: (-work_of(j), j.name))
    if order == "wspt":
        return sorted(jobs, key=lambda j: (work_of(j) / max(j.weight, 1e-12), j.name))
    raise ValueError(f"unknown job order {order!r}")
