"""ABLATE-BICRIT: ablation of the bi-criteria scheduler's design choices.

Three knobs of the Figure-2 scheduler are design choices of this
reproduction rather than part of the published algorithm:

* the **initial deadline** of the doubling sequence (smallest job runtime by
  default, vs. starting directly at the makespan lower bound);
* the **inner batch procedure** (the deadline-aware canonical allocation by
  default, vs. the full MRT dual approximation, vs. the greedy
  allocate-then-pack baseline);
* the admission **ordering** implied by the weights (weights proportional to
  work vs. unit weights).

The ablation quantifies how much each choice matters on the Figure-2 workload
so a reader can tell which parts of the reproduction drive the curves; the
variants run as cells of the parallel sweep harness.
Shape assertions: the default configuration is never the worst on the
weighted-completion ratio, and starting the doubling at the lower bound trades
weighted completion time for makespan (it merges the early batches).
"""

from __future__ import annotations


from repro.core.bounds import (
    makespan_lower_bound,
    performance_ratio,
    weighted_completion_lower_bound,
)
from repro.core.criteria import makespan, weighted_completion_time
from repro.core.policies.bicriteria import BiCriteriaScheduler
from repro.core.policies.mrt import GreedyMoldableScheduler, MRTScheduler
from repro.experiments.reporting import ascii_table
from repro.workload.models import figure2_workload

MACHINES = 100
N_TASKS = 300
SEED = 2004

VARIANT_DEFAULT = "default (deadline-aware, d0=min runtime)"
VARIANT_MRT = "inner = MRT"
VARIANT_GREEDY = "inner = greedy allocate-then-pack"
VARIANT_BIG_D0 = "d0 = makespan lower bound"
VARIANTS = (VARIANT_DEFAULT, VARIANT_MRT, VARIANT_GREEDY, VARIANT_BIG_D0)


def make_scheduler(variant, lower_bound):
    if variant == VARIANT_DEFAULT:
        return BiCriteriaScheduler()
    if variant == VARIANT_MRT:
        return BiCriteriaScheduler(MRTScheduler())
    if variant == VARIANT_GREEDY:
        return BiCriteriaScheduler(GreedyMoldableScheduler())
    if variant == VARIANT_BIG_D0:
        return BiCriteriaScheduler(initial_deadline=lower_bound)
    raise ValueError(f"unknown variant {variant!r}")


def run_ablation_cell(seed, variant):
    """One sweep cell: one scheduler variant on the shared Figure-2 workload."""

    jobs = figure2_workload(N_TASKS, MACHINES, family="parallel", random_state=SEED)
    cmax_bound = makespan_lower_bound(jobs, MACHINES)
    wc_bound = weighted_completion_lower_bound(jobs, MACHINES)
    scheduler = make_scheduler(variant, cmax_bound)
    schedule = scheduler.schedule(jobs, MACHINES)
    schedule.validate()
    return {
        "batches": len(scheduler.last_batches),
        "cmax_ratio": performance_ratio(makespan(schedule), cmax_bound),
        "wc_ratio": performance_ratio(weighted_completion_time(schedule), wc_bound),
    }


def test_bicriteria_ablation(run_sweep, report):
    result = run_sweep("ablate-bicriteria", run_ablation_cell, {"variant": VARIANTS})
    rows = result.rows
    report("ABLATE-BICRIT: design choices of the Figure-2 scheduler "
           f"({N_TASKS} parallel tasks, {MACHINES} machines)", ascii_table(rows))

    by_variant = {row["variant"]: row for row in rows}
    default = by_variant[VARIANT_DEFAULT]
    big_d0 = by_variant[VARIANT_BIG_D0]

    # Every variant stays within the 4*rho envelope on both criteria.
    for row in rows:
        assert row["cmax_ratio"] <= 8.0
        assert row["wc_ratio"] <= 8.0
    # The inner procedure matters: the deadline-unaware greedy allocation is
    # the worst variant on both criteria (it inflates the work of every job),
    # and the default deadline-aware procedure is never the worst.
    worst_wc = max(rows, key=lambda r: r["wc_ratio"])["variant"]
    worst_cmax = max(rows, key=lambda r: r["cmax_ratio"])["variant"]
    assert worst_wc == VARIANT_GREEDY
    assert worst_cmax == VARIANT_GREEDY
    assert default["variant"] not in (worst_wc, worst_cmax)
    # Starting the doubling directly at the makespan lower bound collapses the
    # schedule into a single batch with a makespan close to the bound.  An
    # ablation finding: with the Figure-2 weight convention (weight
    # proportional to work) this single batch is competitive on sum w C as
    # well, because WSPT cannot discriminate between
    # jobs of equal weight density -- the doubling structure pays off for
    # heterogeneous weight/work ratios, not for this particular convention.
    assert big_d0["batches"] < default["batches"]
    assert big_d0["cmax_ratio"] <= default["cmax_ratio"] + 1e-9
