"""The 1000-worker in-process fleet.

The ``inproc://`` backend exists so scheduler behaviour at fleet scale is
testable in one process: a thousand workers are a thousand coroutines on
the scheduler's own event loop, no sockets or forks.  The contracts:

* a 1000-worker fleet drains a multi-thousand-cell campaign, yields rows
  bit-identical to serial execution in submission order, and evicts
  **nobody** (heartbeat liveness under full load);
* a journal-resumed sweep (``run_experiment(..., journal=)``) on a fresh
  fleet re-executes only the incomplete cells.
"""

from __future__ import annotations

from repro.distributed import Scheduler, inproc_fleet
from repro.experiments.grid import CellFunction, expand_grid
from repro.experiments.harness import run_experiment


def fleet_metrics(seed, i):
    # Cheap, deterministic, seed-sensitive: enough to catch any ordering
    # or attribution mistake in the scheduler.
    return {"value": (seed * 31 + i * 7) % 9973, "i": i}


class TestThousandWorkerFleet:
    def test_1000_workers_drain_3000_cells_bit_identically(self):
        cells = expand_grid({"i": list(range(750))}, repetitions=4, base_seed=4242)
        fn = CellFunction(fleet_metrics)
        serial = [fn(cell) for cell in cells]

        with Scheduler("inproc://", stall_timeout=60.0) as scheduler:
            for _ in range(1000):
                scheduler.spawn_local_worker(inline=True)
            outcomes = list(scheduler.run_campaign(fn, cells))
            stats = scheduler.stats

        assert len(outcomes) == len(cells)
        # Ordered streaming + per-cell seeds = bit-identical to serial.
        assert [o.cell for o in outcomes] == list(cells)
        assert [o.metrics for o in outcomes] == [o.metrics for o in serial]
        assert all(o.error is None for o in outcomes)
        # The whole fleet joined and did the work...
        assert stats.workers_joined == 1000
        assert stats.results == len(cells)
        # ...and the heartbeat monitor evicted no healthy worker even with
        # a thousand connections hammering the loop (no eviction storm).
        assert stats.evictions == 0
        assert stats.worker_lost_failures == 0

    def test_journal_resume_re_executes_only_incomplete_cells(self, tmp_path):
        journal = tmp_path / "fleet.jsonl"
        grid = {"i": list(range(150))}

        # The first sweep covers 450 of the 600 cells (repetitions 0-2).
        first = run_experiment("fleet", fleet_metrics, grid, repetitions=3,
                               base_seed=99, executor=inproc_fleet(50), journal=journal)
        assert len(first.rows) == 450

        # The resumed sweep replays 450 from the journal, executes 150.
        executor = inproc_fleet(50)
        resumed = run_experiment("fleet", fleet_metrics, grid, repetitions=4,
                                 base_seed=99, executor=executor, journal=journal)
        fn = CellFunction(fleet_metrics)
        cells = expand_grid(grid, repetitions=4, base_seed=99)
        assert [o.metrics for o in resumed.outcomes] == [fn(c).metrics for c in cells]
        assert resumed.cache_hits == 450
        assert executor.stats.results == 150
        assert executor.stats.evictions == 0
