"""Random generators of rigid and moldable Parallel Tasks.

All generators are driven by an explicit seed (or
:class:`numpy.random.Generator`) so every experiment of the repository is
reproducible bit-for-bit.  Runtimes follow a log-uniform distribution by
default -- parallel workloads mix short debug jobs and long production runs
spanning several orders of magnitude -- and weights are either uniform or
proportional to the job work (the two conventions used in the weighted
completion time literature).

:func:`figure2_workload` builds the two workload families of Figure 2:

* ``"non_parallel"`` -- sequential jobs only (each job uses exactly one
  processor);
* ``"parallel"`` -- moldable jobs whose profiles follow a random mix of
  Amdahl and power-law speedups, with maximum parallelism up to the cluster
  size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.job import Job, MoldableJob, RigidJob
from repro.core.speedup import AmdahlSpeedup, PowerLawSpeedup
from repro.workload.table import JobTable

RandomState = Union[int, np.random.Generator, None]


def _rng(random_state: RandomState) -> np.random.Generator:
    if isinstance(random_state, np.random.Generator):
        return random_state
    return np.random.default_rng(random_state)


@dataclass
class WorkloadConfig:
    """Parameters shared by the synthetic workload generators."""

    #: Minimum and maximum sequential runtime (log-uniform distribution).
    runtime_range: Tuple[float, float] = (1.0, 100.0)
    #: Weights: "unit" (all 1), "work" (proportional to sequential work) or
    #: "random" (uniform in [1, 10]).
    weight_scheme: str = "unit"
    #: Fraction of jobs that are sequential even in a "parallel" workload.
    sequential_fraction: float = 0.0
    #: Maximum processor count of moldable jobs (None = platform size).
    max_procs: Optional[int] = None
    #: Range of the Amdahl serial fraction of moldable jobs.
    serial_fraction_range: Tuple[float, float] = (0.02, 0.25)
    #: Range of the power-law exponent of moldable jobs.
    power_alpha_range: Tuple[float, float] = (0.7, 1.0)

    def __post_init__(self) -> None:
        lo, hi = self.runtime_range
        if lo <= 0 or hi < lo:
            raise ValueError("invalid runtime_range")
        if self.weight_scheme not in ("unit", "work", "random"):
            raise ValueError("weight_scheme must be 'unit', 'work' or 'random'")
        if not 0.0 <= self.sequential_fraction <= 1.0:
            raise ValueError("sequential_fraction must be in [0, 1]")


def _runtimes(rng: np.random.Generator, n: int, runtime_range: Tuple[float, float]) -> np.ndarray:
    lo, hi = runtime_range
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))


def _weight(rng: np.random.Generator, scheme: str, work: float) -> float:
    if scheme == "unit":
        return 1.0
    if scheme == "work":
        return float(work)
    return float(rng.uniform(1.0, 10.0))


def generate_rigid_jobs(
    n_jobs: int,
    machine_count: int,
    *,
    config: Optional[WorkloadConfig] = None,
    max_procs: Optional[int] = None,
    random_state: RandomState = None,
    name_prefix: str = "rigid",
) -> List[RigidJob]:
    """Random rigid jobs: log-uniform runtimes, log-uniform processor counts."""

    if n_jobs < 0:
        raise ValueError("n_jobs must be >= 0")
    config = config or WorkloadConfig()
    rng = _rng(random_state)
    cap = max_procs or config.max_procs or machine_count
    cap = min(cap, machine_count)
    runtimes = _runtimes(rng, n_jobs, config.runtime_range)
    jobs: List[RigidJob] = []
    for i in range(n_jobs):
        # Log-uniform processor requirement in [1, cap]: most jobs are small,
        # a few are large, which matches observed supercomputer workloads.
        nbproc = int(round(math.exp(rng.uniform(0.0, math.log(cap))))) if cap > 1 else 1
        nbproc = max(1, min(cap, nbproc))
        duration = float(runtimes[i])
        jobs.append(
            RigidJob(
                name=f"{name_prefix}-{i:05d}",
                nbproc=nbproc,
                duration=duration,
                weight=_weight(rng, config.weight_scheme, duration * nbproc),
            )
        )
    return jobs


def generate_moldable_jobs(
    n_jobs: int,
    machine_count: int,
    *,
    config: Optional[WorkloadConfig] = None,
    random_state: RandomState = None,
    name_prefix: str = "moldable",
) -> List[MoldableJob]:
    """Random moldable jobs with Amdahl or power-law speedup profiles."""

    if n_jobs < 0:
        raise ValueError("n_jobs must be >= 0")
    config = config or WorkloadConfig()
    rng = _rng(random_state)
    cap = min(config.max_procs or machine_count, machine_count)
    runtimes = _runtimes(rng, n_jobs, config.runtime_range)
    # The RNG draw loop stays scalar -- per-job draw *order* is part of the
    # reproducibility contract -- and only records each job's speedup model
    # and profile length.  The profiles are then written straight into one
    # CSR array (see _csr_profiles) and the JobTable validates the batch in
    # a few vectorized passes and materializes MoldableJob objects with
    # their bound caches pre-seeded (bit-identical to constructing each job
    # individually from runtime_profile_array).
    names: List[str] = []
    models: List[Optional[Union[AmdahlSpeedup, PowerLawSpeedup]]] = []
    lengths = np.ones(n_jobs, dtype=np.int64)
    weights: List[float] = []
    for i in range(n_jobs):
        seq = float(runtimes[i])
        if rng.random() < config.sequential_fraction:
            model = None
        else:
            if rng.random() < 0.5:
                lo, hi = config.serial_fraction_range
                model = AmdahlSpeedup(float(rng.uniform(lo, hi)))
            else:
                lo, hi = config.power_alpha_range
                model = PowerLawSpeedup(float(rng.uniform(lo, hi)))
            lengths[i] = int(rng.integers(2, cap + 1)) if cap >= 2 else 1
        names.append(f"{name_prefix}-{i:05d}")
        models.append(model)
        weights.append(_weight(rng, config.weight_scheme, seq))
    if not names:
        return []
    data, ptr = _csr_profiles(runtimes, models, lengths)
    return JobTable.from_csr(names, data, ptr, weights=weights).to_jobs()


def _csr_profiles(
    runtimes: np.ndarray,
    models: List[Optional[Union[AmdahlSpeedup, PowerLawSpeedup]]],
    lengths: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR runtime profiles ``(data, ptr)``, one row per job.

    Row ``i`` equals ``runtime_profile_array(runtimes[i], lengths[i],
    models[i])`` (``[runtimes[i]]`` when ``models[i]`` is ``None``) bit for
    bit: the speedups are written into ``data`` with the same float
    operations, then every row is divided in one pass as
    ``seq / max(speedup, 1e-12)``.  A sequential row's speedup is 1.0, and
    ``seq / 1.0`` is ``seq`` exactly.
    """

    ptr = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    data = np.ones(int(ptr[-1]), dtype=float)  # sequential rows keep speedup 1.0
    procs = [float(k) for k in range(1, int(lengths.max()) + 1)]
    amdahl: List[int] = []
    serial: List[float] = []
    for i, model in enumerate(models):
        if model is None:
            continue
        if type(model) is AmdahlSpeedup:
            amdahl.append(i)
            serial.append(model.serial_fraction)
        else:
            # Scalar pow on purpose: float(k) ** alpha through libm, as
            # PowerLawSpeedup computes it (np.power may round differently).
            count = int(lengths[i])
            data[ptr[i] : ptr[i + 1]] = np.fromiter(
                map(pow, procs[:count], repeat(model.alpha, count)), dtype=float, count=count
            )
    if amdahl:
        # One elementwise block for every Amdahl row: 1 / (f + (1 - f) / k).
        rows = np.array(amdahl)
        counts = lengths[rows]
        offset = np.arange(int(counts.sum()))
        offset -= np.repeat(np.cumsum(counts) - counts, counts)
        f = np.repeat(np.array(serial), counts)
        speedup = offset + 1.0
        np.divide(1.0 - f, speedup, out=speedup)
        speedup += f
        np.divide(1.0, speedup, out=speedup)
        offset += np.repeat(ptr[rows], counts)
        data[offset] = speedup
    np.maximum(data, 1e-12, out=data)
    np.divide(np.repeat(runtimes, lengths), data, out=data)
    # Monotony repair (running min), only on rows whose runtime rises
    # somewhere: a running min leaves a non-increasing row unchanged.
    rising = data[1:] > data[:-1]
    rising[ptr[1:-1] - 1] = False  # pairs straddling two rows
    if rising.any():
        for row in np.unique(np.searchsorted(ptr, np.flatnonzero(rising), side="right") - 1):
            segment = data[ptr[row] : ptr[row + 1]]
            np.minimum.accumulate(segment, out=segment)
    return data, ptr


def generate_mixed_jobs(
    n_jobs: int,
    machine_count: int,
    *,
    rigid_fraction: float = 0.3,
    config: Optional[WorkloadConfig] = None,
    random_state: RandomState = None,
    name_prefix: str = "job",
) -> List[Job]:
    """A mix of rigid and moldable jobs (section 5.1 scenario)."""

    if not 0.0 <= rigid_fraction <= 1.0:
        raise ValueError("rigid_fraction must be in [0, 1]")
    rng = _rng(random_state)
    n_rigid = int(round(n_jobs * rigid_fraction))
    n_moldable = n_jobs - n_rigid
    rigid = generate_rigid_jobs(
        n_rigid, machine_count, config=config, random_state=rng,
        name_prefix=f"{name_prefix}-r",
    )
    moldable = generate_moldable_jobs(
        n_moldable, machine_count, config=config, random_state=rng,
        name_prefix=f"{name_prefix}-m",
    )
    jobs: List[Job] = [*rigid, *moldable]
    rng.shuffle(jobs)  # type: ignore[arg-type]
    return jobs


def figure2_workload(
    n_jobs: int,
    machine_count: int = 100,
    *,
    family: str = "parallel",
    random_state: RandomState = None,
    runtime_range: Tuple[float, float] = (1.0, 50.0),
    weight_scheme: str = "work",
) -> List[MoldableJob]:
    """The two workload families of Figure 2.

    Parameters
    ----------
    family:
        ``"parallel"`` -- moldable jobs (random Amdahl / power-law profiles);
        ``"non_parallel"`` -- strictly sequential jobs.
    weight_scheme:
        Weights of the ``sum w_i C_i`` criterion; the default makes the weight
        proportional to the job's sequential work, the usual convention when
        users "pay" proportionally to the resources they request.
    """

    if family not in ("parallel", "non_parallel"):
        raise ValueError("family must be 'parallel' or 'non_parallel'")
    config = WorkloadConfig(
        runtime_range=runtime_range,
        weight_scheme=weight_scheme,
        sequential_fraction=1.0 if family == "non_parallel" else 0.0,
        max_procs=machine_count,
    )
    return generate_moldable_jobs(
        n_jobs,
        machine_count,
        config=config,
        random_state=random_state,
        name_prefix=family,
    )
