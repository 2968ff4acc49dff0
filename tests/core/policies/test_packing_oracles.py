"""Equivalence oracles for the list-scheduling kernel and the bi-criteria loop.

``list_schedule_rigid`` picks processors from a grouped free list and
``BiCriteriaScheduler.schedule`` selects each batch by one scan of the job
indices sorted once in WSPT order.  The reference implementations below are
the straightforward versions they replaced -- a stable argsort of every
processor's availability time per job, and a WSPT sort of the released jobs
per batch -- and the properties check that both produce the same schedule
entries, bit for bit, and the same batch records.  The inputs are drawn with
many ties (integer runtimes, allocations up to the platform size), a
non-zero start time, release dates with gaps and rigid/moldable mixes.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Schedule
from repro.core.bounds import min_runtime, min_work
from repro.core.job import Job, MoldableJob, RigidJob
from repro.core.policies.base import SchedulerError, list_schedule_rigid
from repro.core.policies.bicriteria import BatchRecord, BiCriteriaScheduler
from repro.core.policies.list_scheduling import ListScheduler
from repro.core.policies.mrt import GreedyMoldableScheduler, MRTScheduler

# -- reference implementations -------------------------------------------------


def reference_list_schedule(
    allocations: Sequence[Tuple[Job, int]],
    machine_count: int,
    *,
    start_time: float = 0.0,
    respect_release_dates: bool = False,
) -> Schedule:
    """List scheduling with one stable argsort of the free times per job."""

    free_at = np.full(machine_count, float(start_time))
    schedule = Schedule(machine_count)
    for job, nbproc in allocations:
        if nbproc < 1 or nbproc > machine_count:
            raise SchedulerError(
                f"job {job.name!r}: allocation {nbproc} infeasible on "
                f"{machine_count} processors"
            )
        runtime = job.runtime(nbproc)
        order = np.argsort(free_at, kind="stable")
        chosen_idx = order[:nbproc]
        start = max(float(free_at[order[nbproc - 1]]), start_time)
        if respect_release_dates:
            start = max(start, job.release_date)
        free_at[chosen_idx] = start + runtime
        schedule.add(job, start, chosen_idx.tolist(), runtime)
    return schedule


def _reference_select(ready: Sequence[Job], machine_count: int, deadline: float) -> List[Job]:
    order = sorted(ready, key=lambda j: (min_work(j) / max(j.weight, 1e-12), j.name))
    budget = deadline * machine_count
    used = 0.0
    selected: List[Job] = []
    for job in order:
        runtime = min_runtime(job)
        area = min_work(job)
        if runtime > deadline + 1e-12:
            continue
        if used + area > budget + 1e-9:
            continue
        selected.append(job)
        used += area
    return selected


def _reference_batch(offline, selected, machine_count, now, deadline) -> Schedule:
    if offline is not None:
        return offline.schedule(selected, machine_count, start_time=now)
    allocations = []
    for job in selected:
        if isinstance(job, RigidJob):
            nbproc = job.nbproc
        else:
            nbproc = job.canonical_allocation(deadline)
            if nbproc is None or nbproc > machine_count:
                upper = min(job.max_procs, machine_count)
                nbproc = min(
                    range(job.min_procs, upper + 1), key=lambda k: (job.runtime(k), k)
                )
        allocations.append((job, nbproc))
    allocations.sort(key=lambda t: (-t[0].runtime(t[1]), t[0].name))
    return reference_list_schedule(allocations, machine_count, start_time=now)


def reference_bicriteria(
    jobs: Sequence[Job],
    machine_count: int,
    *,
    offline=None,
    initial_deadline: Optional[float] = None,
) -> Tuple[Schedule, List[BatchRecord]]:
    """Doubling batches with a WSPT sort of the released jobs per batch."""

    batches: List[BatchRecord] = []
    if not jobs:
        return Schedule(machine_count), batches
    remaining = sorted(jobs, key=lambda j: (j.release_date, j.name))
    result = Schedule(machine_count)
    now = min(j.release_date for j in remaining)
    if initial_deadline is not None:
        deadline = initial_deadline
    else:
        deadline = max(min(min_runtime(j) for j in remaining), 1e-9)
    index = 0
    while remaining:
        ready = [j for j in remaining if j.release_date <= now + 1e-12]
        if not ready:
            now = min(j.release_date for j in remaining)
            continue
        selected = _reference_select(ready, machine_count, deadline)
        if not selected:
            deadline *= 2.0
            continue
        for job in selected:
            remaining.remove(job)
        batch = _reference_batch(offline, selected, machine_count, now, deadline)
        batch.validate(check_release_dates=False)
        for entry in batch:
            result.add_scheduled(entry)
        batches.append(
            BatchRecord(
                index=index,
                start=now,
                deadline=deadline,
                jobs=[j.name for j in selected],
                makespan=batch.makespan(),
            )
        )
        now = max(batch.makespan(), now)
        deadline *= 2.0
        index += 1
    return result, batches


# -- comparison helpers ----------------------------------------------------------


def entries(schedule: Schedule) -> List[Tuple[str, str, Tuple[int, ...], str]]:
    return [
        (e.job.name, repr(e.start), e.processors, repr(e.allocation.runtime))
        for e in schedule
    ]


def records(batches: Sequence[BatchRecord]) -> List[tuple]:
    return [
        (b.index, repr(b.start), repr(b.deadline), list(b.jobs), repr(b.makespan))
        for b in batches
    ]


# -- strategies ------------------------------------------------------------------

RELEASES = st.sampled_from([0, 0, 0, 2, 5, 40, 41, 100])


@st.composite
def job_mixes(draw, machine_count: int, *, max_jobs: int = 12) -> List[Job]:
    """Rigid and moldable jobs with integer runtimes and release dates."""

    jobs: List[Job] = []
    for i in range(draw(st.integers(1, max_jobs))):
        release = draw(RELEASES)
        weight = draw(st.sampled_from([1.0, 1.0, 2.0, 3.0, 0.5]))
        if draw(st.booleans()):
            jobs.append(
                RigidJob(
                    name=f"r{i}",
                    nbproc=draw(st.integers(1, machine_count)),
                    duration=float(draw(st.integers(1, 9))),
                    release_date=float(release),
                    weight=weight,
                )
            )
            continue
        length = draw(st.integers(1, machine_count + 2))
        # Integer runtimes, non-increasing, many plateaus: ties everywhere.
        runtimes = sorted(
            (float(draw(st.integers(1, 12))) for _ in range(length)), reverse=True
        )
        jobs.append(
            MoldableJob(
                name=f"m{i}",
                runtimes=runtimes,
                min_procs=draw(st.integers(1, min(length, machine_count))),
                release_date=float(release),
                weight=weight,
                enforce_monotony=False,
            )
        )
    return jobs


@st.composite
def allocation_lists(draw):
    machine_count = draw(st.integers(1, 9))
    jobs = draw(job_mixes(machine_count, max_jobs=15))
    allocations = []
    for job in jobs:
        if isinstance(job, RigidJob):
            allocations.append((job, job.nbproc))
        else:
            upper = min(job.max_procs, machine_count)
            allocations.append((job, draw(st.integers(job.min_procs, upper))))
    return machine_count, allocations


# -- properties ------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    case=allocation_lists(),
    start_time=st.sampled_from([0, 0.0, 3, 2.5, 40.0]),
    respect=st.booleans(),
)
def test_list_schedule_matches_argsort_reference(case, start_time, respect):
    machine_count, allocations = case
    got = list_schedule_rigid(
        allocations, machine_count, start_time=start_time, respect_release_dates=respect
    )
    want = reference_list_schedule(
        allocations, machine_count, start_time=start_time, respect_release_dates=respect
    )
    assert entries(got) == entries(want)


@settings(max_examples=100, deadline=None)
@given(
    machine_count=st.integers(1, 100),
    durations=st.lists(st.integers(1, 5), min_size=1, max_size=60),
    data=st.data(),
)
def test_list_schedule_matches_reference_on_wide_platforms(machine_count, durations, data):
    """Many processors free at the same instants: long groups, partial takes."""

    jobs = [
        RigidJob(name=f"j{i}", nbproc=data.draw(st.integers(1, machine_count)), duration=float(d))
        for i, d in enumerate(durations)
    ]
    allocations = [(job, job.nbproc) for job in jobs]
    got = list_schedule_rigid(allocations, machine_count, start_time=1)
    want = reference_list_schedule(allocations, machine_count, start_time=1)
    assert entries(got) == entries(want)


@pytest.mark.parametrize("nbproc", [0, 4])
def test_list_schedule_rejects_infeasible_allocation_like_reference(nbproc):
    job = RigidJob(name="x", nbproc=1, duration=1.0)
    for schedule in (list_schedule_rigid, reference_list_schedule):
        with pytest.raises(SchedulerError, match="allocation .* infeasible on 3"):
            schedule([(job, nbproc)], 3)


def test_list_schedule_merges_release_into_existing_group():
    """Processors freed at the same instant form one group in index order."""

    jobs = [
        (RigidJob(name="a", nbproc=2, duration=4.0), 2),
        (RigidJob(name="b", nbproc=1, duration=2.0), 1),
        (RigidJob(name="c", nbproc=1, duration=2.0), 1),
        (RigidJob(name="d", nbproc=4, duration=1.0), 4),
    ]
    got = list_schedule_rigid(jobs, 4)
    assert entries(got) == entries(reference_list_schedule(jobs, 4))
    # b and c both end at 2.0, on processors 2 and 3: one group.  d takes
    # that group first, then a's processors 0 and 1, and starts at 4.0.
    assert got["c"].processors == (3,)
    assert got["d"].start == 4.0
    assert got["d"].processors == (2, 3, 0, 1)


INNER = st.sampled_from(["default", "mrt", "greedy", "lpt"])


def _inner(name):
    return {
        "default": None,
        "mrt": MRTScheduler(),
        "greedy": GreedyMoldableScheduler(),
        "lpt": ListScheduler("lpt"),
    }[name]


@st.composite
def bicriteria_instances(draw):
    machine_count = draw(st.integers(1, 8))
    return machine_count, draw(job_mixes(machine_count))


@settings(max_examples=200, deadline=None)
@given(
    case=bicriteria_instances(),
    inner=INNER,
    initial_deadline=st.sampled_from([None, None, 0.5, 3.0]),
)
def test_bicriteria_matches_per_batch_sort_reference(case, inner, initial_deadline):
    machine_count, jobs = case
    scheduler = BiCriteriaScheduler(_inner(inner), initial_deadline=initial_deadline)
    got = scheduler.schedule(jobs, machine_count)
    want, batches = reference_bicriteria(
        jobs, machine_count, offline=_inner(inner), initial_deadline=initial_deadline
    )
    assert entries(got) == entries(want)
    assert records(scheduler.last_batches) == records(batches)


def test_bicriteria_jumps_to_the_next_release_date():
    """An idle gap between releases moves the batch start to the next release."""

    jobs = [
        MoldableJob(name="early", runtimes=[2.0, 1.5], release_date=0.0),
        MoldableJob(name="late", runtimes=[3.0], release_date=50.0),
        MoldableJob(name="later", runtimes=[1.0], release_date=50.0, weight=5.0),
    ]
    scheduler = BiCriteriaScheduler()
    got = scheduler.schedule(jobs, 2)
    want, batches = reference_bicriteria(jobs, 2)
    assert entries(got) == entries(want)
    assert records(scheduler.last_batches) == records(batches)
    assert [b.start for b in scheduler.last_batches][1] == 50.0
