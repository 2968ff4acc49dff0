"""Equivalence oracle for the lower bounds and ``schedule_ratios``.

The bounds of :mod:`repro.core.bounds` read one set of per-job columns
(``p_j^min``, ``W_j^min``, ``r_j + p_j^min``) computed once per instance.
The reference formulas below re-derive every term per job, the way the
bounds are written on paper; each public bound, and every field of
``schedule_ratios``, must equal them exactly -- including the return types
on the empty instance.
"""

from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bounds
from repro.core.allocation import Schedule
from repro.core.criteria import (
    makespan,
    mean_stretch,
    sum_completion_times,
    weighted_completion_time,
)
from repro.core.job import DivisibleJob, Job, MoldableJob, ParametricSweep, RigidJob
from repro.core.policies.base import list_schedule_rigid
from repro.metrics.ratios import RatioReport, schedule_ratios

# -- reference formulas ----------------------------------------------------------

p_min = bounds.min_runtime
w_min = bounds.min_work


def ref_makespan(jobs, m):
    if m < 1:
        raise ValueError("machine_count must be >= 1")
    jobs = list(jobs)
    if not jobs:
        return 0.0
    critical = max(p_min(j) for j in jobs)
    area = sum(w_min(j) for j in jobs) / m
    release = max(j.release_date + p_min(j) for j in jobs)
    return max(critical, area, release)


def ref_completion_bounds(jobs, m) -> List[Tuple[Job, float]]:
    if m < 1:
        raise ValueError("machine_count must be >= 1")
    order = sorted(jobs, key=lambda j: (w_min(j) / max(j.weight, 1e-12), j.name))
    out = []
    elapsed = 0.0
    for job in order:
        elapsed += w_min(job) / m
        out.append((job, max(elapsed, job.release_date + p_min(job))))
    return out


def ref_weighted(jobs, m):
    return sum(job.weight * c for job, c in ref_completion_bounds(jobs, m))


def ref_sum_completion(jobs, m):
    order = sorted(jobs, key=lambda j: (w_min(j), j.name))
    total = 0.0
    elapsed = 0.0
    for job in order:
        elapsed += w_min(job) / m
        total += max(elapsed, job.release_date + p_min(job))
    return total


def ref_stretch(jobs):
    jobs = list(jobs)
    if not jobs:
        return 0.0
    return sum(p_min(j) for j in jobs) / len(jobs)


def ref_ratios(schedule, jobs, m) -> RatioReport:
    cmax, cmax_lb = makespan(schedule), ref_makespan(jobs, m)
    wc, wc_lb = weighted_completion_time(schedule), ref_weighted(jobs, m)
    sc, sc_lb = sum_completion_times(schedule), ref_sum_completion(jobs, m)
    stretch, stretch_lb = mean_stretch(schedule), ref_stretch(jobs)
    return RatioReport(
        n_jobs=len(jobs),
        machine_count=m,
        makespan=cmax,
        makespan_bound=cmax_lb,
        makespan_ratio=bounds.performance_ratio(cmax, cmax_lb),
        weighted_completion=wc,
        weighted_completion_bound=wc_lb,
        weighted_completion_ratio=bounds.performance_ratio(wc, wc_lb),
        sum_completion=sc,
        sum_completion_bound=sc_lb,
        sum_completion_ratio=bounds.performance_ratio(sc, sc_lb),
        mean_stretch=stretch,
        mean_stretch_bound=stretch_lb,
        mean_stretch_ratio=bounds.performance_ratio(stretch, stretch_lb),
    )


def same(got, want):
    """Equal values of the same type (floats compared through repr)."""

    assert type(got) is type(want)
    if isinstance(want, float):
        assert repr(got) == repr(want)
    else:
        assert got == want


# -- strategies ------------------------------------------------------------------

TIMES = st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0, 30.0, 1e-3])
WEIGHTS = st.sampled_from([1.0, 1.0, 2.0, 0.5, 0.0, 3.0])


@st.composite
def mixed_jobs(draw):
    jobs: List[Job] = []
    for i in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["rigid", "moldable", "sweep", "divisible"]))
        common = dict(name=f"{kind}-{i}", release_date=draw(TIMES), weight=draw(WEIGHTS))
        if kind == "rigid":
            job = RigidJob(
                nbproc=draw(st.integers(1, 6)),
                duration=float(draw(st.integers(1, 9))),
                **common,
            )
        elif kind == "moldable":
            length = draw(st.integers(1, 6))
            runtimes = sorted(
                (draw(st.floats(0.25, 20.0, allow_nan=False)) for _ in range(length)),
                reverse=True,
            )
            job = MoldableJob(
                runtimes=runtimes,
                min_procs=draw(st.integers(1, length)),
                enforce_monotony=False,
                **common,
            )
        elif kind == "sweep":
            job = ParametricSweep(
                n_runs=draw(st.integers(1, 50)),
                run_time=draw(st.sampled_from([0.5, 1.0, 3.0])),
                **common,
            )
        else:
            job = DivisibleJob(load=draw(st.sampled_from([1.0, 4.0, 12.5])), **common)
        jobs.append(job)
    return jobs


# -- properties ------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(jobs=mixed_jobs(), machine_count=st.integers(1, 8))
def test_public_bounds_match_per_job_formulas(jobs, machine_count):
    same(bounds.makespan_lower_bound(jobs, machine_count), ref_makespan(jobs, machine_count))
    got = bounds.completion_time_lower_bounds(jobs, machine_count)
    want = ref_completion_bounds(jobs, machine_count)
    assert [(j.name, repr(c)) for j, c in got] == [(j.name, repr(c)) for j, c in want]
    assert all(a is b for (a, _), (b, _) in zip(got, want))
    same(
        bounds.weighted_completion_lower_bound(jobs, machine_count),
        ref_weighted(jobs, machine_count),
    )
    same(
        bounds.sum_completion_lower_bound(jobs, machine_count),
        ref_sum_completion(jobs, machine_count),
    )
    same(bounds.stretch_lower_bound(jobs), ref_stretch(jobs))
    got_all = bounds.instance_lower_bounds(jobs, machine_count)
    want_all = (
        ref_makespan(jobs, machine_count),
        ref_weighted(jobs, machine_count),
        ref_sum_completion(jobs, machine_count),
        ref_stretch(jobs),
    )
    for got_value, want_value in zip(got_all, want_all):
        same(got_value, want_value)


@settings(max_examples=150, deadline=None)
@given(jobs=mixed_jobs(), machine_count=st.integers(6, 10))
def test_schedule_ratios_match_per_job_formulas(jobs, machine_count):
    # Schedule the rigid and moldable part; the bags stay in the instance only.
    packable = [j for j in jobs if isinstance(j, (RigidJob, MoldableJob))]
    allocations = [
        (j, j.nbproc if isinstance(j, RigidJob) else j.min_procs) for j in packable
    ]
    schedule = list_schedule_rigid(allocations, machine_count, respect_release_dates=True)
    got = schedule_ratios(schedule, jobs, machine_count=machine_count)
    want = ref_ratios(schedule, jobs, machine_count)
    assert {k: repr(v) for k, v in got.as_dict().items()} == {
        k: repr(v) for k, v in want.as_dict().items()
    }
    # Defaulting to the scheduled jobs and the schedule's platform size.
    got = schedule_ratios(schedule)
    want = ref_ratios(schedule, schedule.jobs, machine_count)
    assert got.as_dict() == want.as_dict()


def test_empty_instance_keeps_the_return_types():
    same(bounds.makespan_lower_bound([], 4), 0.0)
    assert bounds.completion_time_lower_bounds([], 4) == []
    same(bounds.weighted_completion_lower_bound([], 4), ref_weighted([], 4))
    same(bounds.weighted_completion_lower_bound([], 4), 0)
    same(bounds.sum_completion_lower_bound([], 4), 0.0)
    same(bounds.stretch_lower_bound([]), 0.0)
    assert schedule_ratios(Schedule(4), []) == ref_ratios(Schedule(4), [], 4)


@pytest.mark.parametrize(
    "bound",
    [
        bounds.makespan_lower_bound,
        bounds.completion_time_lower_bounds,
        bounds.weighted_completion_lower_bound,
        bounds.instance_lower_bounds,
    ],
)
def test_invalid_machine_count_is_rejected(bound):
    with pytest.raises(ValueError, match="machine_count must be >= 1"):
        bound([RigidJob(name="r", nbproc=1, duration=1.0)], 0)


def test_unsupported_job_type_is_rejected():
    with pytest.raises(TypeError, match="unsupported job type"):
        bounds.instance_lower_bounds([Job(name="bare")], 2)
