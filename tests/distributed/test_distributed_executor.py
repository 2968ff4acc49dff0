"""End-to-end tests of ``DistributedExecutor``: identity, faults, resume.

The acceptance contract of the distributed runtime:

* a 64-cell sweep through 4 workers is bit-identical (rows and digests) to
  :class:`SerialExecutor`, in submission order;
* a worker SIGKILLed mid-sweep costs a retry, not the sweep;
* a journal-resumed campaign (``run_experiment(..., journal=)``)
  re-executes exactly the cells the killed one had not consumed;
* a cell whose retry budget is exhausted by worker deaths surfaces as
  :class:`CellExecutionError` carrying the failing configuration.

Run functions live at module level; workers are forked from the test
process, so they stay picklable by reference.
"""

from __future__ import annotations

import functools
import os
import signal
import time

import numpy as np
import pytest

from repro.distributed import DistributedExecutor
from repro.experiments.grid import CellFunction, expand_grid
from repro.experiments.harness import CellExecutionError, run_experiment
from repro.scenarios.composer import rows_digest
from repro.telemetry import SweepListener

GRID_4x4 = {"a": [1, 2, 3, 4], "b": [10, 20, 30, 40]}  # x4 reps = 64 cells

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="mini-cluster tests fork local workers",
)


def fast_executor(**kwargs):
    """A mini-cluster tuned for tests: tight heartbeats, finite stall guard."""

    defaults = dict(
        workers=4, heartbeat_interval=0.1, heartbeat_timeout=1.5, stall_timeout=30.0
    )
    defaults.update(kwargs)
    return DistributedExecutor(**defaults)


def seeded_metrics(seed, a, b):
    rng = np.random.default_rng(seed * 100_003 + a * 1009 + b)
    return {"value": float(rng.normal()), "score": float(rng.random()) * a + b}


def slow_cell(seed, slot):
    time.sleep(0.05)
    return {"slot": slot, "seed_used": seed}


def logging_cell(seed, x, log_path=""):
    # One line per actual execution; O_APPEND keeps concurrent writers safe.
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{seed},{x}\n")
    return {"y": float(x * seed)}


def worker_killing_cell(seed, n):
    if n == 3:
        os._exit(17)  # die like a crashed/preempted worker, mid-cell
    return {"n_squared": n * n}


class TestBitIdentity:
    def test_64_cells_4_workers_identical_to_serial(self):
        serial = run_experiment("identity", seeded_metrics, GRID_4x4,
                                repetitions=4, base_seed=42, executor="serial")
        distributed = run_experiment("identity", seeded_metrics, GRID_4x4,
                                     repetitions=4, base_seed=42,
                                     executor=fast_executor())
        assert len(serial) == 64
        assert distributed.rows == serial.rows  # same values, same order
        assert rows_digest(distributed.rows) == rows_digest(serial.rows)
        assert distributed.executor == "distributed"

    def test_empty_sweep_runs_without_binding_anything(self):
        result = run_experiment("empty", seeded_metrics, {"a": [], "b": [1]},
                                repetitions=2, executor=fast_executor())
        assert result.rows == []


class TestWorkerLoss:
    def test_sigkilled_worker_mid_sweep_is_retried(self):
        grid = {"slot": list(range(16))}  # x4 reps = 64 cells, ~50ms each
        serial = run_experiment("kill", slow_cell, grid,
                                repetitions=4, executor="serial")
        executor = fast_executor()
        cells = expand_grid(grid, repetitions=4, base_seed=1234)
        stream = executor.map(CellFunction(slow_cell), cells)
        outcomes = []
        stats = None
        for outcome in stream:
            outcomes.append(outcome)
            if len(outcomes) == 8:
                # Every worker is busy mid-cell at this point: killing one
                # strands its in-flight cell, which must be requeued.
                stats = executor.scheduler.stats
                os.kill(executor.processes[0].pid, signal.SIGKILL)
        assert len(outcomes) == 64
        rows = [dict(outcome.metrics) for outcome in outcomes]
        expected = [{"slot": row["slot"], "seed_used": row["seed_used"]}
                    for row in serial.rows]
        assert rows == expected
        # The SIGKILLed worker's in-flight cell went back to the queue ...
        assert stats.retries >= 1
        # ... and the babysitter replaced the dead worker, so the sweep
        # finished at full strength (no worker-lost failures).
        assert stats.worker_lost_failures == 0
        assert executor.scheduler is None  # torn down once the stream ends

    def test_retry_budget_exhaustion_surfaces_failing_config(self):
        executor = fast_executor(workers=2, max_retries=2)
        with pytest.raises(CellExecutionError) as excinfo:
            run_experiment("poison", worker_killing_cell, {"n": [1, 2, 3, 4]},
                           repetitions=1, base_seed=77, executor=executor)
        error = excinfo.value
        assert error.params == {"n": 3}
        assert error.seed == 77
        assert error.error_type == "WorkerLostError"
        assert "retry budget" in str(error)


class SweepKilled(Exception):
    """Stands in for the signal that kills a campaign mid-way."""


class KillAfterRows(SweepListener):
    def __init__(self, rows):
        self.rows = rows

    def on_row(self, experiment, cell, row, outcome):
        self.rows -= 1
        if self.rows == 0:
            raise SweepKilled()


class TestJournalResume:
    def test_killed_campaign_resumes_re_running_only_incomplete_cells(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        log = tmp_path / "executions.log"
        log.touch()
        run = functools.partial(logging_cell, log_path=str(log))
        grid = {"x": list(range(16))}  # x4 reps = 64 cells

        # The first campaign dies once the harness has consumed 30 cells.
        # Workers may have finished a few more behind it; the harness never
        # consumed those, so they are not journaled and run again below.
        with pytest.raises(SweepKilled):
            run_experiment("resume", run, grid, repetitions=4, base_seed=1234,
                           executor=fast_executor(workers=2), journal=journal,
                           listener=KillAfterRows(30))
        assert len(journal.read_text().splitlines()) == 30
        executed_before = len(log.read_text().splitlines())
        assert executed_before >= 30

        # Restart: exactly the 34 incomplete cells run, nothing journaled re-runs.
        resumed = run_experiment("resume", run, grid, repetitions=4, base_seed=1234,
                                 executor=fast_executor(workers=2), journal=journal)
        assert resumed.cache_hits == 30
        assert len(log.read_text().splitlines()) - executed_before == 34
        serial = run_experiment("resume", run, grid, repetitions=4,
                                base_seed=1234, executor="serial")
        assert resumed.rows == serial.rows

    def test_changed_run_function_invalidates_the_journal(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        log = tmp_path / "executions.log"
        log.touch()
        run = functools.partial(logging_cell, log_path=str(log))
        grid = {"x": [1, 2, 3]}
        run_experiment("vers", run, grid, repetitions=1,
                       executor=fast_executor(workers=2), journal=journal)
        # Same journal, different run function: nothing replays.
        other = run_experiment("vers", seeded_metrics, {"a": [1], "b": [2]},
                               repetitions=1, executor=fast_executor(workers=2),
                               journal=journal)
        assert other.cache_hits == 0

    def test_fully_journaled_campaign_spawns_no_worker(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        grid = {"a": [1, 2], "b": [10]}
        first = run_experiment("replay", seeded_metrics, grid, repetitions=2,
                               executor=fast_executor(workers=2), journal=journal)
        executor = fast_executor(workers=2)
        replayed = run_experiment("replay", seeded_metrics, grid, repetitions=2,
                                  executor=executor, journal=journal)
        assert replayed.cache_hits == 4
        assert replayed.rows == first.rows
        assert executor.last_stats is None  # no campaign was started


class TestScenarioDigests:
    @pytest.mark.parametrize("backend", ["tcp", "inproc"])
    def test_registered_scenario_smoke_digest_matches_serial(self, backend):
        from repro.scenarios import get, run_scenario

        spec = get("fig2.bicriteria")
        serial = run_scenario(spec, smoke=True, executor="serial")
        if backend == "tcp":
            executor = fast_executor(workers=2)
        else:
            executor = DistributedExecutor("inproc://", workers=4, stall_timeout=30.0)
        distributed = run_scenario(spec, smoke=True, executor=executor)
        assert rows_digest(distributed.rows) == rows_digest(serial.rows)
