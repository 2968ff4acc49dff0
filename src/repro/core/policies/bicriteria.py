"""Bi-criteria scheduling (section 4.4): doubling-deadline batches.

The paper presents the approach of Hall, Schulz, Shmoys and Wein for
optimising the makespan and the sum of weighted completion times *at the same
time*: use a makespan procedure ``A_Cmax`` (performance ratio ``rho_Cmax``)
as a black box that, given a deadline ``d``, schedules within length
``rho_Cmax * d`` "as many tasks as possible (or the maximum weight)".
Running this procedure "iteratively in batches of doubling sizes (d, 2d, 4d,
...)" yields a schedule whose makespan is at most ``4 rho_Cmax * Cmax*`` and
whose sum of weighted completion times is within ``4 rho_Cmax`` of the
optimum.

This is the algorithm whose "simulated implementation of a variation"
produces **Figure 2** of the paper; the :mod:`repro.experiments.figure2`
module drives it exactly as described there (100 machines, parallel and
non-parallel jobs, criteria Cmax and sum w_i C_i).

Implementation notes
--------------------
* The maximum-weight selection of jobs fitting in a deadline is NP-hard in
  general; as in the original article a greedy selection is used: jobs are
  considered in weighted-shortest-processing-time order (weight over minimal
  work) and admitted while the aggregate area fits in ``d * m`` and their
  minimal runtime fits in ``d``.
* The WSPT keys ``(minimal work / weight, name)`` are unique and never
  change, so the job indices are sorted once per :meth:`~BiCriteriaScheduler.schedule`
  call; each batch is then one linear scan of the pending indices in that
  order, which admits exactly the jobs a per-batch sort of the released
  jobs would.
* Release dates are supported in the natural batch fashion: a job is only
  considered once the current batch start has passed its release date
  (the on-line setting of section 4.4, "independent on-line moldable jobs").
* Each admitted batch is scheduled with a pluggable off-line makespan policy
  (default: the deadline-aware procedure described on the class).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.allocation import Schedule
from repro.core.bounds import min_runtime, min_work
from repro.core.job import Job, MoldableJob, RigidJob, validate_jobs
from repro.core.policies.base import (
    OfflineScheduler,
    ReleaseDateScheduler,
    SchedulerError,
    list_schedule_rigid,
)


@dataclass
class BatchRecord:
    """Bookkeeping of one doubling batch (exposed for tests and reports)."""

    index: int
    start: float
    deadline: float
    jobs: List[str] = field(default_factory=list)
    makespan: float = 0.0


class BiCriteriaScheduler(ReleaseDateScheduler):
    """Doubling-deadline batches for (Cmax, sum w_j C_j) bi-criteria scheduling.

    Parameters
    ----------
    offline:
        Off-line makespan procedure used inside each batch.  ``None`` (the
        default) uses the built-in *deadline-aware* batch builder: every
        selected moldable job receives its canonical allocation
        ``gamma(j, d)`` -- the smallest processor count meeting the current
        deadline ``d`` -- and the resulting rigid jobs are packed with LPT
        list scheduling.  This is the "ACmax procedure" role of the original
        algorithm: it keeps the work inflation minimal while guaranteeing
        that every job of the batch fits within the deadline.  Pass an
        explicit policy (e.g. :class:`~repro.core.policies.mrt.MRTScheduler`)
        to study other inner procedures.
    initial_deadline:
        First deadline ``d``.  When ``None`` it is derived from the instance:
        the smallest minimal runtime of the jobs, which makes the
        first batches small and therefore favours small high-priority jobs
        (good for the weighted completion time).
    """

    def __init__(
        self,
        offline: Optional[OfflineScheduler] = None,
        *,
        initial_deadline: Optional[float] = None,
    ) -> None:
        self.offline = offline
        if initial_deadline is not None and initial_deadline <= 0:
            raise ValueError("initial_deadline must be > 0")
        self.initial_deadline = initial_deadline
        inner_name = offline.name if offline is not None else "deadline-aware"
        self.name = f"bicriteria({inner_name})"
        #: Records of the batches built by the last call to :meth:`schedule`.
        self.last_batches: List[BatchRecord] = []

    # -- main entry point -------------------------------------------------------
    def schedule(self, jobs: Sequence[Job], machine_count: int) -> Schedule:
        jobs = validate_jobs(jobs)
        self.last_batches = []
        if not jobs:
            return Schedule(machine_count)
        for job in jobs:
            if isinstance(job, MoldableJob) and job.min_procs > machine_count:
                raise SchedulerError(
                    f"moldable job {job.name!r} needs at least {job.min_procs} "
                    f"processors, platform only has {machine_count}"
                )
        release = [job.release_date for job in jobs]
        runtimes = [min_runtime(job) for job in jobs]
        areas = [min_work(job) for job in jobs]
        # Pending job indices in WSPT order (the keys are unique).
        pending = sorted(
            range(len(jobs)),
            key=lambda i: (areas[i] / max(jobs[i].weight, 1e-12), jobs[i].name),
        )
        result = Schedule(machine_count)
        now = min(release)
        if self.initial_deadline is not None:
            deadline = self.initial_deadline
        else:
            deadline = max(min(runtimes), 1e-9)
        batch_index = 0
        guard = 0
        max_batches = 4 * len(jobs) + 64  # generous; deadlines double so this is never hit
        while pending:
            guard += 1
            if guard > max_batches:
                raise SchedulerError("bi-criteria scheduler did not converge")
            # Greedy maximum-weight selection: released jobs in WSPT order,
            # admitted while their best runtime fits in the deadline and the
            # admitted area stays within deadline * machine_count.
            release_limit = now + 1e-12
            runtime_limit = deadline + 1e-12
            budget = deadline * machine_count
            used = 0.0
            any_released = False
            selected: List[int] = []
            rest: List[int] = []
            for i in pending:
                if release[i] > release_limit:
                    rest.append(i)
                    continue
                any_released = True
                area = areas[i]
                if runtimes[i] > runtime_limit or used + area > budget + 1e-9:
                    rest.append(i)
                    continue
                selected.append(i)
                used += area
            if not any_released:
                now = min(release[i] for i in pending)
                continue
            if not selected:
                # No released job fits in the current deadline: double it and
                # retry (the guard above bounds the number of doublings).
                deadline *= 2.0
                continue
            pending = rest
            batch = [jobs[i] for i in selected]
            batch_schedule = self._schedule_batch(batch, machine_count, now, deadline)
            batch_schedule.validate(check_release_dates=False)
            # In-place union (same entries, same insertion order as the
            # previous result.merge(batch_schedule), without re-copying the
            # accumulated schedule on every batch).
            for entry in batch_schedule:
                result.add_scheduled(entry)
            if batch_schedule.reservations:
                result.reservations = result.reservations + batch_schedule.reservations
            batch_makespan = batch_schedule.makespan()
            record = BatchRecord(
                index=batch_index,
                start=now,
                deadline=deadline,
                jobs=[job.name for job in batch],
                makespan=batch_makespan,
            )
            self.last_batches.append(record)
            now = max(batch_makespan, now)
            deadline *= 2.0
            batch_index += 1
        return result

    # -- helpers ---------------------------------------------------------------
    def _schedule_batch(
        self, selected: Sequence[Job], machine_count: int, now: float, deadline: float
    ) -> Schedule:
        """Schedule one batch starting at ``now``.

        With an explicit ``offline`` policy the batch is delegated to it.
        Otherwise the built-in deadline-aware procedure is used: each
        moldable job gets the smallest allocation whose runtime fits in
        ``deadline`` (minimal work inflation), rigid jobs keep their
        requirement, and the resulting rigid instance is packed with LPT
        list scheduling.
        """

        if self.offline is not None:
            return self.offline.schedule(selected, machine_count, start_time=now)
        allocations: List[Tuple[Job, int]] = []
        for job in selected:
            if isinstance(job, RigidJob):
                nbproc = job.nbproc
            elif isinstance(job, MoldableJob):
                nbproc = job.canonical_allocation(deadline)
                if nbproc is None or nbproc > machine_count:
                    # Admission guarantees min_runtime(job) <= deadline, so a
                    # feasible allocation exists; cap it at the platform size
                    # and fall back to the fastest allocation otherwise
                    # (schedule() rejected min_procs > machine_count, so the
                    # range is never empty).
                    upper = min(job.max_procs, machine_count)
                    nbproc = min(
                        range(job.min_procs, upper + 1),
                        key=lambda k: (job.runtime(k), k),
                    )
            else:
                raise SchedulerError(f"cannot schedule job of type {type(job)!r}")
            allocations.append((job, nbproc))
        allocations.sort(key=lambda t: (-t[0].runtime(t[1]), t[0].name))
        return list_schedule_rigid(allocations, machine_count, start_time=now)
