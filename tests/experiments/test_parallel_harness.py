"""Tests of the parallel sweep engine: executors, determinism, resume, errors.

The run functions live at module level so they are picklable by the
process-pool executor.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import sys
import time

import numpy as np
import pytest

from repro.experiments.executors import (
    JOBS_ENV_VAR,
    ExecutorSpecError,
    ProcessPoolExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.experiments.grid import Cell, cell_key, expand_grid
from repro.experiments.harness import (
    CellExecutionError,
    run_experiment,
    run_fingerprint,
)
from repro.telemetry import SweepListener

GRID_4x4 = {"a": [1, 2, 3, 4], "b": [10, 20, 30, 40]}  # x4 reps = 64 cells


def seeded_metrics(seed, a, b):
    """Deterministic floating-point metrics (bit-identical across runs)."""

    rng = np.random.default_rng(seed * 100_003 + a * 1009 + b)
    return {"value": float(rng.normal()), "score": float(rng.random()) * a + b}


def failing_on_three(seed, n):
    if n == 3:
        raise ValueError(f"bad cell n={n}")
    return {"n_squared": n * n}


class OverlapProbe:
    """Shared counters that the cells of a forked pool update."""

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self.lock = ctx.Lock()
        self.in_flight = ctx.RawValue("i", 0)
        self.peak = ctx.RawValue("i", 0)
        self.worker_cells = ctx.RawValue("i", 0)
        self.gave_up = ctx.RawValue("b", 0)
        self.parent = os.getpid()


#: Installed by a test before the pool forks; ``None`` runs cells plainly.
OVERLAP_PROBE = None


def overlapping_cell(seed, slot):
    """Count the cells in flight, then wait until two run at once.

    The wait ends as soon as a second cell starts, so a pool that overlaps
    cells passes however slow the host is; the 30 s bound only stops a pool
    that runs one cell at a time from hanging the suite.
    """

    probe = OVERLAP_PROBE
    if probe is not None:
        with probe.lock:
            probe.in_flight.value += 1
            probe.peak.value = max(probe.peak.value, probe.in_flight.value)
            probe.worker_cells.value += os.getpid() != probe.parent
        deadline = time.monotonic() + 30.0
        while probe.peak.value < 2 and not probe.gave_up.value:
            if time.monotonic() > deadline:
                probe.gave_up.value = 1
            time.sleep(0.001)
        with probe.lock:
            probe.in_flight.value -= 1
    return {"slot": slot, "seed_used": seed}


CALL_LOG = []


def counting_cell(seed, x):
    CALL_LOG.append((seed, x))
    return {"double": 2 * x}


class TestGridExpansion:
    def test_order_params_and_seeds(self):
        cells = expand_grid({"b": [5, 1], "a": ["x"]}, repetitions=2, base_seed=100)
        assert [cell.index for cell in cells] == [0, 1, 2, 3]
        # Sorted key order, values in given order, repetitions innermost.
        assert cells[0].params == (("a", "x"), ("b", 5))
        assert cells[2].params == (("a", "x"), ("b", 1))
        assert [cell.seed for cell in cells] == [100, 101, 100, 101]

    def test_empty_grid_is_one_combo(self):
        cells = expand_grid({}, repetitions=3, base_seed=7)
        assert len(cells) == 3
        assert all(cell.params == () for cell in cells)

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            expand_grid({}, repetitions=0)

    def test_cell_key_distinguishes_cells_and_versions(self):
        cell_a, cell_b = expand_grid({"n": [1, 2]}, repetitions=1)
        assert cell_key("e", cell_a) != cell_key("e", cell_b)
        assert cell_key("e", cell_a) != cell_key("other", cell_a)
        assert cell_key("e", cell_a, "v1") != cell_key("e", cell_a, "v2")
        assert cell_key("e", cell_a) == cell_key("e", Cell(0, 0, 1234, (("n", 1),)))


class TestExecutorSelection:
    def test_resolve_specs(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor(1), SerialExecutor)
        pool = resolve_executor(6)
        assert isinstance(pool, ProcessPoolExecutor) and pool.jobs == 6
        assert isinstance(resolve_executor("process"), ProcessPoolExecutor)
        existing = SerialExecutor()
        assert resolve_executor(existing) is existing
        with pytest.raises(ValueError):
            resolve_executor("carrier-pigeon")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert isinstance(resolve_executor(None), SerialExecutor)
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        pool = resolve_executor(None)
        assert isinstance(pool, ProcessPoolExecutor) and pool.jobs == 3
        monkeypatch.setenv(JOBS_ENV_VAR, "1")
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_malformed_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "ten")
        with pytest.raises(ExecutorSpecError) as excinfo:
            resolve_executor(None)
        message = str(excinfo.value)
        # The error must say where the bad value came from and what is
        # accepted, not surface as a bare int() conversion failure.
        assert f"{JOBS_ENV_VAR}=ten" in message
        assert "tcp://HOST:PORT" in message and "'serial'" in message

    def test_negative_job_counts_are_rejected(self, monkeypatch):
        with pytest.raises(ExecutorSpecError):
            resolve_executor(-2)
        monkeypatch.setenv(JOBS_ENV_VAR, "-3")
        with pytest.raises(ExecutorSpecError) as excinfo:
            resolve_executor(None)
        assert f"{JOBS_ENV_VAR}=-3" in str(excinfo.value)

    def test_tcp_spec_resolves_to_distributed_executor(self):
        from repro.distributed import DistributedExecutor

        executor = resolve_executor("tcp://127.0.0.1:8765")
        assert isinstance(executor, DistributedExecutor)
        assert executor.address == "tcp://127.0.0.1:8765"
        assert executor.workers == 0  # external workers connect themselves
        local = resolve_executor("distributed", jobs=3)
        assert isinstance(local, DistributedExecutor) and local.workers == 3

    def test_malformed_tcp_spec_is_friendly(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "tcp://nohost")
        with pytest.raises(ExecutorSpecError) as excinfo:
            resolve_executor(None)
        message = str(excinfo.value)
        assert f"{JOBS_ENV_VAR}=tcp://nohost" in message
        with pytest.raises(ExecutorSpecError):
            resolve_executor("udp://127.0.0.1:1")
        # ExecutorSpecError stays a ValueError for existing callers.
        assert issubclass(ExecutorSpecError, ValueError)


class TestParallelIdentity:
    def test_pool_rows_identical_to_serial_64_cells(self):
        serial = run_experiment("identity", seeded_metrics, GRID_4x4,
                                repetitions=4, base_seed=42, executor="serial")
        pooled = run_experiment("identity", seeded_metrics, GRID_4x4,
                                repetitions=4, base_seed=42,
                                executor=ProcessPoolExecutor(4))
        assert len(serial) == 64
        # Same rows, same values (bit-identical floats), same order.
        assert pooled.rows == serial.rows
        assert pooled.executor == "process"
        assert serial.executor == "serial"

    def test_chunked_dispatch_preserves_order(self):
        serial = run_experiment("chunks", seeded_metrics, GRID_4x4,
                                repetitions=2, executor="serial")
        chunked = run_experiment("chunks", seeded_metrics, GRID_4x4, repetitions=2,
                                 executor=ProcessPoolExecutor(2, chunk_size=5))
        assert chunked.rows == serial.rows

    def test_env_var_end_to_end(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        pooled = run_experiment("env", seeded_metrics, {"a": [1, 2], "b": [3]},
                                repetitions=2)
        monkeypatch.setenv(JOBS_ENV_VAR, "1")
        serial = run_experiment("env", seeded_metrics, {"a": [1, 2], "b": [3]},
                                repetitions=2)
        assert pooled.executor == "process"
        assert pooled.rows == serial.rows

    def test_pool_runs_cells_at_the_same_time(self, monkeypatch):
        """64 cells: the pool runs at least two at once, in worker processes."""

        grid = {"slot": list(range(16))}  # x4 reps = 64 cells
        serial = run_experiment("overlap", overlapping_cell, grid,
                                repetitions=4, executor="serial")
        probe = OverlapProbe()
        monkeypatch.setattr(sys.modules[__name__], "OVERLAP_PROBE", probe)
        pooled = run_experiment("overlap", overlapping_cell, grid, repetitions=4,
                                executor=ProcessPoolExecutor(8, start_method="fork"))
        assert pooled.rows == serial.rows
        assert len(serial) == 64
        assert not probe.gave_up.value
        assert probe.peak.value >= 2
        assert probe.worker_cells.value == 64
        assert probe.in_flight.value == 0

    def test_listener_receives_every_row_in_order_under_a_pool(self):
        class Rows(SweepListener):
            def __init__(self):
                self.rows = []
                self.cells = []

            def on_row(self, experiment, cell, row, outcome):
                self.rows.append(row)
                self.cells.append(cell.index)

        listener = Rows()
        result = run_experiment("listened", seeded_metrics,
                                {"a": [1], "b": [2, 3]}, repetitions=2,
                                executor=ProcessPoolExecutor(2), listener=listener)
        assert listener.rows == result.rows
        assert listener.cells == [0, 1, 2, 3]
        assert len(result.cell_seconds) == 4
        assert all(elapsed >= 0.0 for elapsed in result.cell_seconds)
        # Summaries were folded while the rows streamed (no second pass).
        streamed_summary = result.summary()
        assert streamed_summary["value"].count == 4
        assert streamed_summary["value"] == result.aggregate()["value"]


class TestErrorCapture:
    def test_worker_exception_surfaces_with_failing_config(self):
        with pytest.raises(CellExecutionError) as excinfo:
            run_experiment("boom", failing_on_three, {"n": [1, 2, 3, 4]},
                           repetitions=1, base_seed=77,
                           executor=ProcessPoolExecutor(2))
        error = excinfo.value
        assert error.params == {"n": 3}
        assert error.seed == 77
        assert error.error_type == "ValueError"
        assert "bad cell n=3" in str(error)
        assert "worker traceback" in str(error)

    def test_serial_exception_surfaces_identically(self):
        with pytest.raises(CellExecutionError) as excinfo:
            run_experiment("boom", failing_on_three, {"n": [3]},
                           repetitions=1, executor="serial")
        assert excinfo.value.params == {"n": 3}

    def test_cell_execution_error_pickle_round_trip(self):
        """Regression: the two-argument constructor used to break unpickling.

        The default exception reduction re-calls ``cls(*args)`` with the
        formatted message, which does not match ``__init__(experiment,
        outcome)`` -- so a :class:`CellExecutionError` crossing a process or
        socket boundary (nested harness in a pool worker, distributed
        failure reporting) blew up with a ``TypeError`` instead of
        arriving intact.
        """

        import pickle

        with pytest.raises(CellExecutionError) as excinfo:
            run_experiment("boom", failing_on_three, {"n": [3]},
                           repetitions=1, base_seed=9, executor="serial")
        error = excinfo.value
        restored = pickle.loads(pickle.dumps(error))
        assert isinstance(restored, CellExecutionError)
        assert restored.experiment == "boom"
        assert restored.params == {"n": 3}
        assert restored.seed == 9
        assert restored.error_type == "ValueError"
        assert restored.worker_traceback == error.worker_traceback
        assert str(restored) == str(error)

    def test_cell_execution_error_json_payload_round_trip(self):
        import json

        with pytest.raises(CellExecutionError) as excinfo:
            run_experiment("boom", failing_on_three, {"n": [3]},
                           repetitions=1, executor="serial")
        error = excinfo.value
        payload = json.loads(json.dumps(error.to_payload()))
        restored = CellExecutionError.from_payload(payload)
        assert restored.params == {"n": 3}
        assert restored.error_type == "ValueError"
        assert "bad cell n=3" in restored.worker_traceback

    def test_capture_errors_records_and_continues(self):
        result = run_experiment("soft", failing_on_three, {"n": [1, 2, 3, 4]},
                                repetitions=1, capture_errors=True)
        assert len(result.rows) == 3
        assert result.column("n_squared") == [1, 4, 16]
        assert len(result.errors) == 1
        failed = result.errors[0]
        assert failed.cell.params_dict == {"n": 3}
        assert failed.error_type == "ValueError"
        assert "ValueError" in failed.error


class TestJournalResume:
    def test_rerun_replays_from_the_journal_and_skips_execution(self, tmp_path):
        CALL_LOG.clear()
        journal = tmp_path / "sweep.jsonl"
        first = run_experiment("cached", counting_cell, {"x": [1, 2, 3]},
                               repetitions=2, journal=journal, executor="serial")
        assert len(CALL_LOG) == 6
        assert len(journal.read_text().splitlines()) == 6
        assert first.cache_hits == 0

        second = run_experiment("cached", counting_cell, {"x": [1, 2, 3]},
                                repetitions=2, journal=journal, executor="serial")
        assert len(CALL_LOG) == 6  # nothing re-executed
        assert second.cache_hits == 6
        assert all(outcome.cached for outcome in second.outcomes)
        assert second.rows == first.rows

    def test_partial_journal_recomputes_only_missing_cells(self, tmp_path):
        CALL_LOG.clear()
        journal = tmp_path / "sweep.jsonl"
        run_experiment("partial", counting_cell, {"x": [1, 2]},
                       repetitions=1, journal=journal)
        assert len(CALL_LOG) == 2
        grown = run_experiment("partial", counting_cell, {"x": [1, 2, 3]},
                               repetitions=1, journal=journal)
        assert len(CALL_LOG) == 3  # only x=3 ran
        assert grown.cache_hits == 2
        assert grown.column("double") == [2, 4, 6]

    def test_different_function_does_not_reuse_entries(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_experiment("vers", counting_cell, {"x": [1]}, repetitions=1, journal=journal)
        other = run_experiment("vers", seeded_metrics, {"a": [1], "b": [1]},
                               repetitions=1, journal=journal)
        assert other.cache_hits == 0
        assert run_fingerprint(counting_cell) != run_fingerprint(seeded_metrics)

    def test_unserialisable_metrics_are_recomputed_not_corrupted(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        result = run_experiment("rich", _rich_object_cell, {"x": [1]},
                                repetitions=1, journal=journal)
        assert not journal.exists()  # nothing persistable was written
        again = run_experiment("rich", _rich_object_cell, {"x": [1]},
                               repetitions=1, journal=journal)
        assert again.cache_hits == 0
        assert isinstance(again.rows[0]["payload"], set)
        assert result.rows[0]["payload"] == again.rows[0]["payload"]

    def test_killed_serial_sweep_resumes_running_only_unconsumed_cells(self, tmp_path):
        CALL_LOG.clear()
        journal = tmp_path / "sweep.jsonl"
        with pytest.raises(SweepKilled):
            run_experiment("killed", counting_cell, {"x": list(range(8))},
                           repetitions=1, journal=journal, executor="serial",
                           listener=KillAfterRows(5))
        assert len(journal.read_text().splitlines()) == 5
        CALL_LOG.clear()
        resumed = run_experiment("killed", counting_cell, {"x": list(range(8))},
                                 repetitions=1, journal=journal, executor="serial")
        assert resumed.cache_hits == 5
        assert [x for _, x in CALL_LOG] == [5, 6, 7]
        assert resumed.column("double") == [2 * x for x in range(8)]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="forked pool keeps the test module's cells picklable",
    )
    def test_process_pool_sweep_resumes_from_the_journal(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        log = tmp_path / "executions.log"
        log.touch()
        run = functools.partial(logging_cell, log_path=str(log))
        pool = ProcessPoolExecutor(2, start_method="fork")
        run_experiment("pool", run, GRID_4x4, repetitions=1, base_seed=5,
                       journal=journal, executor=pool)
        assert len(log.read_text().splitlines()) == 16
        grown = {"a": [1, 2, 3, 4], "b": [10, 20, 30, 40, 50, 60]}
        resumed = run_experiment("pool", run, grown, repetitions=1, base_seed=5,
                                 journal=journal, executor=pool)
        assert resumed.cache_hits == 16
        assert len(log.read_text().splitlines()) == 16 + 8  # only b=50, 60 ran
        serial = run_experiment("pool", seeded_metrics, grown, repetitions=1,
                                base_seed=5, executor="serial")
        assert resumed.column("value") == serial.column("value")


class SweepKilled(Exception):
    """Stands in for the signal that kills a sweep mid-way."""


class KillAfterRows(SweepListener):
    def __init__(self, rows):
        self.rows = rows

    def on_row(self, experiment, cell, row, outcome):
        self.rows -= 1
        if self.rows == 0:
            raise SweepKilled()


def logging_cell(seed, a, b, log_path=""):
    # One line per actual execution; O_APPEND keeps concurrent writers safe.
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{seed},{a},{b}\n")
    return seeded_metrics(seed, a, b)


def _rich_object_cell(seed, x):
    return {"payload": {("tuple", x)}}  # a set: not JSON-serialisable
