"""Equivalence oracle for ``generate_moldable_jobs``.

The generator draws every job's parameters in one scalar loop, then writes
all runtime profiles into a single CSR array and materializes the jobs from
a :class:`~repro.workload.JobTable`.  The reference below draws the same
numbers in the same order but builds each job on its own, from
``runtime_profile_array`` and the ``MoldableJob`` constructor; both must
agree field for field, including the memoised bound caches the table primes,
and leave the random generator in the same state.
"""

import math
from itertools import product

import numpy as np
import pytest

from repro.core.job import MoldableJob
from repro.core.speedup import AmdahlSpeedup, PowerLawSpeedup, runtime_profile_array
from repro.workload.models import WorkloadConfig, figure2_workload, generate_moldable_jobs


def reference_moldable_jobs(n_jobs, machine_count, config, rng, name_prefix="moldable"):
    cap = min(config.max_procs or machine_count, machine_count)
    lo, hi = config.runtime_range
    runtimes = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n_jobs))
    jobs = []
    for i in range(n_jobs):
        seq = float(runtimes[i])
        if rng.random() < config.sequential_fraction:
            profile = np.array([seq])
        else:
            if rng.random() < 0.5:
                lo_f, hi_f = config.serial_fraction_range
                model = AmdahlSpeedup(float(rng.uniform(lo_f, hi_f)))
            else:
                lo_a, hi_a = config.power_alpha_range
                model = PowerLawSpeedup(float(rng.uniform(lo_a, hi_a)))
            max_procs = int(rng.integers(2, cap + 1)) if cap >= 2 else 1
            profile = runtime_profile_array(seq, max_procs, model)
        if config.weight_scheme == "unit":
            weight = 1.0
        elif config.weight_scheme == "work":
            weight = float(seq)
        else:
            weight = float(rng.uniform(1.0, 10.0))
        jobs.append(MoldableJob(name=f"{name_prefix}-{i:05d}", weight=weight, runtimes=profile))
    return jobs


def assert_same_jobs(got, want):
    assert len(got) == len(want)
    for job, ref in zip(got, want):
        assert type(job) is MoldableJob
        assert job.name == ref.name
        assert repr(job.release_date) == repr(ref.release_date)
        assert repr(job.weight) == repr(ref.weight)
        assert job.due_date is None and job.owner is None
        assert job.min_procs == ref.min_procs and type(job.min_procs) is int
        assert job.enforce_monotony is True
        assert type(job.runtimes) is tuple
        assert [repr(p) for p in job.runtimes] == [repr(p) for p in ref.runtimes]
        # The table primes the caches; the reference computes them lazily.
        cache = job.__dict__
        assert repr(cache["_best_runtime"]) == repr(ref.best_runtime())
        assert repr(cache["_min_work"]) == repr(ref.min_work())
        assert cache["_non_increasing"] is ref._profile_non_increasing()


CAPS = [1, 2, 3, 64, 100]
FRACTIONS = [0.0, 0.3, 1.0]
SCHEMES = ["unit", "work", "random"]


@pytest.mark.parametrize("cap,fraction,scheme", list(product(CAPS, FRACTIONS, SCHEMES)))
def test_generator_matches_per_job_construction(cap, fraction, scheme):
    config = WorkloadConfig(
        runtime_range=(1.0, 50.0), weight_scheme=scheme, sequential_fraction=fraction
    )
    seed = 1000 * cap + int(10 * fraction) + SCHEMES.index(scheme)
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generate_moldable_jobs(40, cap, config=config, random_state=rng_got)
    want = reference_moldable_jobs(40, cap, config, rng_want)
    assert_same_jobs(got, want)
    # Same draws in the same order: both generators end in the same state.
    assert rng_got.random() == rng_want.random()


@pytest.mark.parametrize("seed", range(4))
def test_generator_matches_on_extreme_speedup_parameters(seed):
    """f = 0 is linear speedup, alpha = 0 a flat profile, f = 1 none at all."""

    config = WorkloadConfig(
        serial_fraction_range=(0.0, 1.0),
        power_alpha_range=(0.0, 1.0),
        weight_scheme="random",
        max_procs=37,
    )
    got = generate_moldable_jobs(60, 100, config=config, random_state=seed)
    want = reference_moldable_jobs(60, 100, config, np.random.default_rng(seed))
    assert_same_jobs(got, want)


@pytest.mark.parametrize("family", ["parallel", "non_parallel"])
def test_figure2_workload_matches_per_job_construction(family):
    got = figure2_workload(200, 100, family=family, random_state=3)
    config = WorkloadConfig(
        runtime_range=(1.0, 50.0),
        weight_scheme="work",
        sequential_fraction=1.0 if family == "non_parallel" else 0.0,
        max_procs=100,
    )
    want = reference_moldable_jobs(200, 100, config, np.random.default_rng(3), name_prefix=family)
    assert_same_jobs(got, want)


def test_invalid_speedup_parameter_raises_like_the_model():
    config = WorkloadConfig(serial_fraction_range=(1.5, 2.0), power_alpha_range=(1.5, 2.0))
    with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
        generate_moldable_jobs(5, 8, config=config, random_state=0)


def test_empty_workload():
    assert generate_moldable_jobs(0, 8, random_state=0) == []


def test_rising_rows_get_the_running_min_repair(monkeypatch):
    """A power-law speedup that dips is repaired like runtime_profile_array
    repairs it: a running min over the row, and only over that row."""

    from repro.workload import models

    def dipping_pow(k, alpha):
        return 1.5 if k == 3.0 else k ** alpha

    monkeypatch.setattr(models, "pow", dipping_pow, raising=False)
    power, amdahl = PowerLawSpeedup(0.8), AmdahlSpeedup(0.1)
    specs = [(power, 6), (None, 1), (amdahl, 5), (power, 2), (power, 4)]
    runtimes = np.array([40.0, 3.0, 12.0, 7.5, 9.0])
    data, ptr = models._csr_profiles(
        runtimes, [m for m, _ in specs], np.array([n for _, n in specs], dtype=np.int64)
    )
    for i, (model, count) in enumerate(specs):
        if model is None:
            want = [float(runtimes[i])]
        else:
            speedup = (lambda k: dipping_pow(float(k), power.alpha)) if model is power else model
            want = runtime_profile_array(float(runtimes[i]), count, speedup).tolist()
        assert [repr(p) for p in data[ptr[i] : ptr[i + 1]].tolist()] == [repr(p) for p in want]
    assert data[ptr[0] + 2] == data[ptr[0] + 1]  # the dip was repaired
