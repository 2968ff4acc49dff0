"""Moldable makespan scheduling: the MRT dual-approximation algorithm.

Section 4.1 of the paper recalls "the best known algorithm" for the off-line
scheduling of ``n`` independent moldable jobs on ``m`` identical processors
(Mounié, Rapine, Trystram), with performance ratio ``3/2 + eps``:

* the job allocations are chosen "with great care in order to fit them into a
  particular packing scheme that is inspired from the shape of the optimal
  one": two shelves of respective heights ``lambda`` and ``lambda / 2``;
* ``lambda`` is a *guess* of the optimal makespan refined by a binary search
  (the dual-approximation scheme of Hochbaum and Shmoys);
* for a given guess, the constraints used are exactly the ones listed in the
  paper: every job must fit under ``lambda`` (``p_j(nbproc(j)) <= lambda``),
  the total work must fit in the area (``sum W_j <= lambda * m``), and jobs
  longer than ``lambda/2`` cannot share a processor, so fewer than ``m``
  processors are used by such jobs.

Implementation note: the original algorithm
proves the 3/2 bound through a fairly intricate transformation of the
knapsack solution into a two-shelf schedule.  This reproduction keeps the
structure -- canonical allocations ``gamma(j, lambda)`` and
``gamma(j, lambda/2)``, a knapsack choosing which jobs go to the small shelf
so as to minimise the total work under the big-shelf capacity ``m``, and the
area feasibility test -- and then *builds* the schedule with an LPT list
scheduling of the resulting rigid jobs, accepting the guess only when the
constructed makespan is at most ``3/2 * lambda``.  The binary search
therefore returns a schedule that satisfies the same a-posteriori guarantee,
and the ``RATIO-MRT`` benchmark verifies the 3/2 + eps ratio empirically
against the lower bound.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import Schedule
from repro.core.bounds import makespan_lower_bound
from repro.core.job import Job, MoldableJob, RigidJob, validate_jobs
from repro.core.policies.base import (
    MoldableAllocator,
    OfflineScheduler,
    SchedulerError,
    list_schedule_rigid,
    sort_jobs,
)


def _as_moldable(job: Job, machine_count: int) -> MoldableJob:
    """View any PT job as a moldable job (a rigid job has a single allocation)."""

    if isinstance(job, MoldableJob):
        return job
    if isinstance(job, RigidJob):
        if job.nbproc > machine_count:
            raise SchedulerError(
                f"rigid job {job.name!r} needs {job.nbproc} processors, "
                f"platform has {machine_count}"
            )
        # Degenerate profile: only the rigid allocation is admissible (entries
        # below min_procs are placeholders that canonical_allocation never
        # returns because min_procs == nbproc).
        if job.nbproc == 1:
            profile = [job.duration]
        else:
            profile = [job.duration * job.nbproc / k for k in range(1, job.nbproc)]
            profile.append(job.duration)
        return MoldableJob(
            name=job.name,
            release_date=job.release_date,
            weight=job.weight,
            due_date=job.due_date,
            owner=job.owner,
            runtimes=profile,
            min_procs=job.nbproc,
            enforce_monotony=False,
        )
    raise SchedulerError(f"MRT cannot schedule job of type {type(job)!r}")


class GreedyMoldableScheduler(OfflineScheduler):
    """Baseline: fix allocations with a simple strategy, then LPT list scheduling.

    This is the "first trivial idea" style baseline the MRT algorithm is
    compared against in the ``RATIO-MRT`` benchmark.
    """

    def __init__(self, allocator: Optional[MoldableAllocator] = None, order: str = "lpt") -> None:
        self.allocator = allocator or MoldableAllocator("bounded_efficiency")
        self.order = order
        self.name = f"greedy-moldable-{self.allocator.strategy}"

    def schedule(
        self, jobs: Sequence[Job], machine_count: int, *, start_time: float = 0.0
    ) -> Schedule:
        jobs = validate_jobs(jobs)
        if not jobs:
            return Schedule(machine_count)
        ordered = sort_jobs(jobs, self.order)
        allocations = self.allocator.freeze(ordered, machine_count)
        return list_schedule_rigid(allocations, machine_count, start_time=start_time)


class MRTScheduler(OfflineScheduler):
    """Dual-approximation two-shelf algorithm for moldable makespan (3/2 + eps)."""

    def __init__(self, epsilon: float = 0.05, *, max_iterations: int = 60) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.epsilon = epsilon
        self.max_iterations = max_iterations
        self.name = "mrt-dual-approx"

    # -- public API -----------------------------------------------------------
    def schedule(
        self, jobs: Sequence[Job], machine_count: int, *, start_time: float = 0.0
    ) -> Schedule:
        jobs = validate_jobs(jobs)
        if not jobs:
            return Schedule(machine_count)
        moldable = [_as_moldable(job, machine_count) for job in jobs]
        original = {job.name: job for job in jobs}

        lower = makespan_lower_bound(jobs, machine_count)
        fallback = GreedyMoldableScheduler().schedule(jobs, machine_count)
        upper = max(fallback.makespan(), lower)
        best = fallback

        if lower <= 0:
            return fallback if start_time == 0 else fallback.shift(start_time)

        iterations = 0
        while upper - lower > self.epsilon * lower and iterations < self.max_iterations:
            iterations += 1
            guess = 0.5 * (lower + upper)
            placement = self._try_guess(moldable, machine_count, guess)
            if placement is None:
                lower = guess
                continue
            schedule = list_schedule_rigid(
                [(original[j.name], k) for j, k in placement],
                machine_count,
            )
            # Keep the best schedule seen so far even when the guess is
            # rejected: a failed guess can still yield a good packing, and the
            # final answer is the minimum over every constructed schedule.
            if schedule.makespan() < best.makespan():
                best = schedule
            if schedule.makespan() <= 1.5 * guess + 1e-9:
                upper = guess
            else:
                lower = guess
        if start_time != 0.0:
            best = best.shift(start_time)
        return best

    # -- internals ------------------------------------------------------------
    def _try_guess(
        self, jobs: Sequence[MoldableJob], machine_count: int, guess: float
    ) -> Optional[List[Tuple[MoldableJob, int]]]:
        """Choose allocations for makespan guess ``guess``.

        Returns ``None`` when the guess is provably too small (some job cannot
        meet it, or the minimal total work exceeds the area ``guess * m``);
        otherwise returns the chosen (job, nbproc) pairs.
        """

        m = machine_count
        big_alloc: List[int] = []     # gamma(j, guess)
        big_work: List[float] = []
        small_alloc: List[Optional[int]] = []  # gamma(j, guess / 2)
        small_work: List[float] = []
        for job in jobs:
            a1 = job.canonical_allocation(guess)
            if a1 is None or a1 > m:
                return None
            big_alloc.append(a1)
            big_work.append(a1 * job.runtime(a1))
            a2 = job.canonical_allocation(guess / 2)
            if a2 is not None and a2 <= m:
                small_alloc.append(a2)
                small_work.append(a2 * job.runtime(a2))
            else:
                small_alloc.append(None)
                small_work.append(math.inf)

        n = len(jobs)
        INF = math.inf
        # dp[c] = minimal total work of the jobs processed so far, using at
        # most c processors for the jobs placed in the big shelf (the shelf
        # of height `guess`).  Jobs placed in the small shelf consume no
        # big-shelf capacity in the knapsack; their processor usage is
        # checked globally through the area constraint, as in the paper.
        dp = np.zeros(m + 1)
        choice = np.zeros((n, m + 1), dtype=bool)  # True = big shelf
        for idx in range(n):
            a1, w1 = big_alloc[idx], big_work[idx]
            w2 = small_work[idx]
            stay_small = dp + w2 if small_alloc[idx] is not None else np.full(m + 1, INF)
            go_big = np.full(m + 1, INF)
            if a1 <= m:
                go_big[a1:] = dp[:-a1] + w1 if a1 > 0 else dp + w1
            new_dp = np.minimum(stay_small, go_big)
            choice[idx] = go_big < stay_small
            if not np.isfinite(new_dp[m]):
                return None
            dp = new_dp

        if dp[m] > guess * m + 1e-9:
            return None

        # Backtrack the knapsack choices to recover the allocations.
        placement: List[Tuple[MoldableJob, int]] = []
        capacity = m
        for idx in range(n - 1, -1, -1):
            if choice[idx, capacity]:
                placement.append((jobs[idx], big_alloc[idx]))
                capacity -= big_alloc[idx]
            else:
                alloc = small_alloc[idx]
                assert alloc is not None
                placement.append((jobs[idx], alloc))
        placement.reverse()
        return placement
