"""Unit tests of the bi-criteria doubling-batch scheduler (section 4.4)."""

import pytest

from repro.core.bounds import (
    makespan_lower_bound,
    weighted_completion_lower_bound,
)
from repro.core.criteria import makespan, weighted_completion_time
from repro.core.job import MoldableJob
from repro.core.policies.base import SchedulerError
from repro.core.policies.bicriteria import BiCriteriaScheduler
from repro.core.policies.list_scheduling import ListScheduler
from repro.core.policies.mrt import GreedyMoldableScheduler, MRTScheduler
from repro.workload.arrivals import poisson_arrivals
from repro.workload.models import WorkloadConfig, generate_moldable_jobs


class TestBiCriteriaScheduler:
    def test_empty(self):
        assert len(BiCriteriaScheduler().schedule([], 4)) == 0

    def test_invalid_initial_deadline(self):
        with pytest.raises(ValueError):
            BiCriteriaScheduler(initial_deadline=0.0)

    def test_all_jobs_scheduled_and_valid(self, random_moldable_jobs):
        scheduler = BiCriteriaScheduler()
        schedule = scheduler.schedule(random_moldable_jobs, 16)
        schedule.validate()
        assert len(schedule) == len(random_moldable_jobs)

    def test_batches_have_doubling_deadlines(self, random_moldable_jobs):
        scheduler = BiCriteriaScheduler()
        scheduler.schedule(random_moldable_jobs, 16)
        deadlines = [b.deadline for b in scheduler.last_batches]
        assert len(deadlines) >= 2
        for previous, current in zip(deadlines, deadlines[1:]):
            assert current >= 2 * previous - 1e-9

    def test_small_heavy_jobs_finish_early(self):
        """The whole point of the bi-criteria schedule: small jobs do not wait
        behind huge ones, unlike a pure makespan (LPT) schedule."""

        jobs = [
            MoldableJob(name="huge", runtimes=[1000.0], weight=1.0),
            MoldableJob(name="tiny", runtimes=[1.0], weight=1.0),
        ]
        bicriteria = BiCriteriaScheduler().schedule(jobs, 1)
        lpt = ListScheduler("lpt").schedule(jobs, 1)
        assert bicriteria["tiny"].completion < lpt["tiny"].completion
        assert bicriteria["tiny"].completion <= 2.0 + 1e-9

    def test_release_dates_respected(self):
        jobs = [
            MoldableJob(name="a", runtimes=[2.0], release_date=0.0),
            MoldableJob(name="b", runtimes=[2.0], release_date=40.0),
        ]
        schedule = BiCriteriaScheduler().schedule(jobs, 4)
        schedule.validate()
        assert schedule["b"].start >= 40.0

    def test_four_rho_bound_on_both_criteria(self):
        """Empirical check of the 4*rho guarantee (rho = 2 for the greedy inner)."""

        rho = 2.0
        for seed in range(3):
            jobs = generate_moldable_jobs(
                40, 16, config=WorkloadConfig(weight_scheme="work"), random_state=seed
            )
            scheduler = BiCriteriaScheduler(GreedyMoldableScheduler())
            schedule = scheduler.schedule(jobs, 16)
            schedule.validate()
            assert makespan(schedule) <= 4 * rho * makespan_lower_bound(jobs, 16) * (1 + 1e-9)
            assert weighted_completion_time(schedule) <= (
                4 * rho * weighted_completion_lower_bound(jobs, 16) * (1 + 1e-9)
            )

    def test_deadline_aware_inner_is_default(self):
        scheduler = BiCriteriaScheduler()
        assert "deadline-aware" in scheduler.name
        assert scheduler.offline is None

    def test_explicit_mrt_inner(self, random_moldable_jobs):
        scheduler = BiCriteriaScheduler(MRTScheduler())
        schedule = scheduler.schedule(random_moldable_jobs, 16)
        schedule.validate()
        assert "mrt" in scheduler.name

    def test_online_instance(self):
        jobs = generate_moldable_jobs(30, 8, random_state=5)
        jobs = poisson_arrivals(jobs, rate=0.5, random_state=5)
        schedule = BiCriteriaScheduler().schedule(jobs, 8)
        schedule.validate()
        assert len(schedule) == 30
        for job in jobs:
            assert schedule[job.name].start >= job.release_date - 1e-9

    def test_batch_records_cover_all_jobs(self, random_moldable_jobs):
        scheduler = BiCriteriaScheduler()
        scheduler.schedule(random_moldable_jobs, 16)
        names = [name for batch in scheduler.last_batches for name in batch.jobs]
        assert sorted(names) == sorted(j.name for j in random_moldable_jobs)

    @pytest.mark.parametrize("inner", [None, MRTScheduler()], ids=["default", "mrt"])
    def test_unplaceable_moldable_job_raises_scheduler_error(self, inner):
        """A moldable job needing more processors than the platform has is
        rejected with a typed error naming it, before any batch is built."""

        jobs = [
            MoldableJob(name="small", runtimes=[1.0]),
            MoldableJob(name="big", runtimes=[8, 4, 3, 2.5], min_procs=3),
        ]
        scheduler = BiCriteriaScheduler(inner)
        with pytest.raises(
            SchedulerError,
            match="moldable job 'big' needs at least 3 processors, platform only has 2",
        ):
            scheduler.schedule(jobs, 2)
        assert scheduler.last_batches == []
