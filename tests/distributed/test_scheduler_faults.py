"""Scheduler fault-path tests driven through raw protocol sockets.

A *silent* fake worker -- one that registers, takes a cell and then stops
heartbeating without closing its socket -- is indistinguishable from a hung
host; only the heartbeat timeout can reclaim its cell.  These tests pin the
eviction, requeue and retry-budget bookkeeping at the scheduler level,
complementing the end-to-end SIGKILL test (where the kernel closes the
socket and the scheduler notices immediately).  A *hostile* peer -- a
worker or scheduler sending malformed frames -- must cost a dropped
connection and a retry, never a corrupted row or a wedged campaign.
"""

from __future__ import annotations

import asyncio
import logging
import socket
import threading
import time

import pytest

from repro.distributed import DistributedExecutor, Scheduler, inproc_fleet, protocol
from repro.distributed.scheduler import WORKER_LOST, CampaignStalled
from repro.experiments.grid import CellFunction, expand_grid
from repro.experiments.harness import run_experiment


def plain_cell(seed, x):
    return {"y": x * 10 + seed % 10}


class FakeWorker:
    """A hand-driven protocol client (no heartbeat thread, no execution)."""

    def __init__(self, wire, address, worker_id):
        self.wire = wire
        host, port = protocol.parse_address(address)
        self.sock = socket.create_connection((host, port), timeout=5.0)
        self.worker_id = worker_id
        self.wire.send(self.sock, {"op": "hello", "worker": worker_id})
        assert self.wire.recv(self.sock)["op"] == "welcome"

    def take_cell(self, timeout=10.0):
        """Request until a task arrives; returns the task message."""

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.wire.send(self.sock, {"op": "request"})
            reply = self.wire.recv(self.sock)
            if reply["op"] == "task":
                return reply
            time.sleep(0.02)
        raise AssertionError("fake worker never received a task")

    def finish(self, task, **overrides):
        """Send the task's result frame, with ``overrides`` patched in."""

        cell = protocol.decode_payload(task["cell"])
        outcome = CellFunction(plain_cell)(cell)
        self.wire.send(self.sock, {
            "op": "result",
            "worker": self.worker_id,
            "campaign": task["campaign"],
            "index": task["index"],
            "outcome": protocol.encode_payload(outcome),
            **overrides,
        })

    def assert_dropped(self, timeout=5.0):
        """The scheduler closed this connection (EOF or reset)."""

        self.sock.settimeout(timeout)
        try:
            assert self.sock.recv(1) == b""
        except ConnectionError:
            pass

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def collect_campaign(scheduler, cells, results, errors):
    try:
        results.extend(scheduler.run_campaign(CellFunction(plain_cell), cells))
    except Exception as error:  # surfaced to the test thread
        errors.append(error)


class TestHeartbeatEviction:
    def test_silent_worker_is_evicted_and_its_cell_requeued(self, wire):
        cells = expand_grid({"x": list(range(8))}, repetitions=1)
        scheduler = Scheduler(
            heartbeat_interval=0.1, heartbeat_timeout=0.6, max_retries=3
        ).start()
        results, errors = [], []
        consumer = threading.Thread(
            target=collect_campaign, args=(scheduler, cells, results, errors)
        )
        consumer.start()
        silent = None
        honest = None
        try:
            # The silent worker grabs a cell first, then goes quiet.
            silent = FakeWorker(wire, scheduler.address, "silent")
            task = silent.take_cell()
            held = protocol.decode_payload(task["cell"])

            # An honest worker drains everything else, then idles until the
            # eviction releases the held cell.
            honest = FakeWorker(wire, scheduler.address, "honest")
            done = 0
            while done < len(cells) - 1:
                honest.finish(honest.take_cell())
                done += 1
            retried = honest.take_cell(timeout=10.0)
            assert protocol.decode_payload(retried["cell"]) == held
            honest.finish(retried)

            consumer.join(timeout=10.0)
            assert not consumer.is_alive() and not errors
            assert [outcome.metrics for outcome in results] == [
                CellFunction(plain_cell)(cell).metrics for cell in cells
            ]
            assert scheduler.stats.evictions == 1
            assert scheduler.stats.retries == 1
            # The evicted socket was closed by the scheduler (EOF or reset).
            silent.assert_dropped(timeout=2.0)
        finally:
            for worker in (silent, honest):
                if worker is not None:
                    worker.close()
            scheduler.close()
            consumer.join(timeout=5.0)

    def test_retry_budget_exhaustion_yields_worker_lost_outcome(self, wire):
        cells = expand_grid({}, repetitions=1)  # a single cell
        scheduler = Scheduler(
            heartbeat_interval=0.1, heartbeat_timeout=5.0, max_retries=1
        ).start()
        results, errors = [], []
        consumer = threading.Thread(
            target=collect_campaign, args=(scheduler, cells, results, errors)
        )
        consumer.start()
        try:
            for attempt in range(2):  # initial assignment + one retry
                crashy = FakeWorker(wire, scheduler.address, f"crashy-{attempt}")
                crashy.take_cell()
                crashy.close()  # die mid-cell: connection drop, no result
            consumer.join(timeout=10.0)
            assert not consumer.is_alive() and not errors
            (outcome,) = results
            assert outcome.failed
            assert outcome.error_type == WORKER_LOST
            assert "retry budget" in outcome.error
            assert scheduler.stats.worker_lost_failures == 1
            assert scheduler.stats.retries == 1
        finally:
            scheduler.close()
            consumer.join(timeout=5.0)


class TestDuplicateAndLateResults:
    def test_duplicate_result_for_a_done_cell_is_ignored(self, wire):
        cells = expand_grid({"x": [1]}, repetitions=1)
        scheduler = Scheduler(heartbeat_interval=0.1, heartbeat_timeout=5.0).start()
        results, errors = [], []
        consumer = threading.Thread(
            target=collect_campaign, args=(scheduler, cells, results, errors)
        )
        consumer.start()
        worker = None
        try:
            worker = FakeWorker(wire, scheduler.address, "dup")
            task = worker.take_cell()
            worker.finish(task)
            worker.finish(task)  # replayed frame: must not corrupt anything
            consumer.join(timeout=10.0)
            assert not consumer.is_alive() and not errors
            assert len(results) == 1
            assert scheduler.stats.results == 1
            # The duplicate frame travels concurrently with the campaign
            # ending; wait for the connection thread to swallow it.
            deadline = time.monotonic() + 5.0
            while scheduler.stats.duplicates < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert scheduler.stats.duplicates >= 1
        finally:
            if worker is not None:
                worker.close()
            scheduler.close()
            consumer.join(timeout=5.0)


class TestCampaignBoundary:
    def test_cells_left_running_by_one_campaign_never_leak_into_the_next(
        self, wire, caplog
    ):
        caplog.set_level(logging.ERROR, logger="asyncio")
        scheduler = Scheduler(heartbeat_interval=0.1, heartbeat_timeout=60.0).start()
        first_cells = expand_grid({"x": list(range(6))}, repetitions=1)
        second_cells = expand_grid({"x": [10, 20]}, repetitions=1)
        first_rows = []

        def read_one_row_then_stop():
            stream = scheduler.run_campaign(CellFunction(plain_cell), first_cells)
            first_rows.append(next(stream))
            stream.close()

        abandoning = threading.Thread(target=read_one_row_then_stop)
        abandoning.start()
        results, errors = [], []
        consumer = threading.Thread(
            target=collect_campaign, args=(scheduler, second_cells, results, errors)
        )
        holder = honest = None
        try:
            # The holder takes cells 0-3 and returns only cell 0, so the
            # first campaign ends with positions 1-3 still on the holder.
            holder = FakeWorker(wire, scheduler.address, "holder")
            tasks = [holder.take_cell() for _ in range(4)]
            assert [task["index"] for task in tasks] == [0, 1, 2, 3]
            holder.finish(tasks[0])
            abandoning.join(timeout=10.0)
            assert not abandoning.is_alive() and len(first_rows) == 1

            # The holder dies during the second, 2-cell campaign: positions
            # 1-3 of the first campaign must not be requeued into it.
            consumer.start()
            holder.close()
            deadline = time.monotonic() + 10.0
            while scheduler.worker_count and time.monotonic() < deadline:
                time.sleep(0.02)
            honest = FakeWorker(wire, scheduler.address, "honest")
            for _ in second_cells:
                honest.finish(honest.take_cell())
            consumer.join(timeout=10.0)
            assert not consumer.is_alive() and not errors
            assert [outcome.metrics for outcome in results] == [
                CellFunction(plain_cell)(cell).metrics for cell in second_cells
            ]
            assert scheduler.stats.retries == 0
        finally:
            for worker in (holder, honest):
                if worker is not None:
                    worker.close()
            scheduler.close()
            abandoning.join(timeout=5.0)
            if consumer.is_alive():
                consumer.join(timeout=5.0)
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


class TestHostileWorkerFrames:
    """A malformed frame drops the connection; its cell is retried elsewhere."""

    @pytest.mark.parametrize(
        "frame",
        [
            # A float index used to be truncated: cell 0's outcome landed at
            # position 1 and cell 0 stayed "running" forever.
            {"op": "result", "index": 1.9},
            # A string index used to escape as an untyped ValueError.
            {"op": "result", "index": "not-an-int"},
            {"op": "result", "index": True},
            {"op": "result", "index": 2},
            {"op": "result", "index": -1},
            {"op": "result", "index": None},
            # An outcome payload that is not a CellOutcome.
            {"op": "result", "outcome": protocol.encode_payload(42)},
            # Work stealing is gone: its confirmation frame is an unknown op.
            {"op": "revoked", "indices": [0], "kept": []},
        ],
        ids=["float", "string", "bool", "past-end", "negative", "missing", "not-an-outcome",
             "revoked"],
    )
    def test_bad_frame_costs_a_retry_not_the_campaign(self, wire, caplog, frame):
        caplog.set_level(logging.ERROR, logger="asyncio")
        cells = expand_grid({"x": [1, 2]}, repetitions=1)
        # A heartbeat timeout far beyond the test's waits: only the bad
        # frame itself may release the hostile worker's cell.
        scheduler = Scheduler(heartbeat_interval=0.1, heartbeat_timeout=60.0).start()
        results, errors = [], []
        consumer = threading.Thread(
            target=collect_campaign, args=(scheduler, cells, results, errors)
        )
        consumer.start()
        hostile = honest = None
        try:
            hostile = FakeWorker(wire, scheduler.address, "hostile")
            task = hostile.take_cell()
            assert task["index"] == 0
            if frame["op"] == "result":
                hostile.finish(task, **frame)
            else:
                wire.send(hostile.sock, {**frame, "campaign": task["campaign"]})
            hostile.assert_dropped()

            # An honest worker drains the campaign, the requeued cell included.
            honest = FakeWorker(wire, scheduler.address, "honest")
            for _ in cells:
                honest.finish(honest.take_cell())
            consumer.join(timeout=10.0)
            assert not consumer.is_alive() and not errors
            assert [outcome.metrics for outcome in results] == [
                CellFunction(plain_cell)(cell).metrics for cell in cells
            ]
            assert scheduler.stats.retries == 1
            assert scheduler.stats.results == len(cells)
        finally:
            for worker in (hostile, honest):
                if worker is not None:
                    worker.close()
            scheduler.close()
            consumer.join(timeout=5.0)
        # The frame took the ordinary connection-loss path: nothing escaped
        # to the event loop's unhandled-exception log.
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


class TestResultOwnership:
    """A result counts only from the worker holding the cell, for that cell."""

    @pytest.mark.parametrize(
        "held, outcome_of",
        [
            # Holding cells 0 and 1, the worker files cell 0's outcome under
            # index 1: the row (x=1, y=14) must not come out twice.
            (2, 0),
            # Holding cell 0 only, the worker files cell 1's result.
            (1, 1),
        ],
        ids=["another-cells-outcome", "unheld-position"],
    )
    def test_spoofed_result_drops_the_worker_and_rows_stay_exact(
        self, wire, caplog, held, outcome_of
    ):
        caplog.set_level(logging.ERROR, logger="asyncio")
        cells = expand_grid({"x": [1, 2, 3]}, repetitions=1)
        scheduler = Scheduler(heartbeat_interval=0.1, heartbeat_timeout=60.0).start()
        results, errors = [], []
        consumer = threading.Thread(
            target=collect_campaign, args=(scheduler, cells, results, errors)
        )
        consumer.start()
        hostile = honest = None
        try:
            hostile = FakeWorker(wire, scheduler.address, "hostile")
            tasks = [hostile.take_cell() for _ in range(held)]
            assert [task["index"] for task in tasks] == list(range(held))
            spoofed = CellFunction(plain_cell)(cells[outcome_of])
            wire.send(hostile.sock, {
                "op": "result", "campaign": tasks[0]["campaign"], "index": 1,
                "outcome": protocol.encode_payload(spoofed),
            })
            try:  # then the honest results of what it holds, if still connected
                for task in tasks:
                    hostile.finish(task)
            except (protocol.ConnectionClosed, OSError):
                pass

            honest = FakeWorker(wire, scheduler.address, "honest")
            deadline = time.monotonic() + 10.0
            while consumer.is_alive() and time.monotonic() < deadline:
                try:
                    honest.finish(honest.take_cell(timeout=0.5))
                except AssertionError:  # nothing pending right now
                    pass
            consumer.join(timeout=5.0)
            assert not consumer.is_alive() and not errors
            assert [(o.cell, o.metrics) for o in results] == [
                (cell, CellFunction(plain_cell)(cell).metrics) for cell in cells
            ]
            hostile.assert_dropped()
            assert scheduler.stats.retries == held
            assert scheduler.stats.results == len(cells)
        finally:
            for worker in (hostile, honest):
                if worker is not None:
                    worker.close()
            scheduler.close()
            consumer.join(timeout=5.0)
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


    def test_a_nan_parameter_still_matches_its_own_cell(self):
        # nan != nan: the ownership check must not reject the honest result
        # of a cell whose parameter is nan.
        result = run_experiment("nan", nan_aware_cell, {"x": [float("nan"), 1.0]},
                                repetitions=1, executor=inproc_fleet(2, stall_timeout=30.0))
        assert result.column("finite") == [False, True]


def nan_aware_cell(seed, x):
    return {"finite": x == x}


class TestHostileSchedulerFrames:
    """The worker drops a connection that sends a malformed or retired frame."""

    @pytest.mark.parametrize(
        "frame",
        [
            {"op": "task", "index": 1.9},
            {"op": "task", "index": "0"},
            {"op": "task", "attempt": True},
            {"op": "idle", "delay": "soon"},
            {"op": "idle", "delay": float("nan")},
            {"op": "idle", "delay": -1},
            {"op": "revoke", "campaign": "c1", "indices": [0]},
            {"op": "cancel", "campaign": "c1", "index": 0, "attempt": 1},
        ],
        ids=["float-index", "string-index", "bool-attempt", "string-delay",
             "nan-delay", "negative-delay", "revoke", "cancel"],
    )
    def test_bad_frame_drops_the_connection_without_executing(self, frame):
        from repro.distributed.comm import core as comm_core
        from repro.distributed.comm.core import CommError
        from repro.distributed.worker import AsyncWorker

        (cell,) = expand_grid({"x": [1]}, repetitions=1)
        if frame["op"] == "task":
            frame = {
                "campaign": "c1", "index": 0, "attempt": 1,
                "cell": protocol.encode_payload(cell),
                "fn": protocol.encode_payload(CellFunction(plain_cell)),
                **frame,
            }

        async def scenario():
            ops = []
            closed = asyncio.Event()

            async def fake_scheduler(comm):
                try:
                    assert (await comm.recv())["op"] == "hello"
                    await comm.send({"op": "welcome", "heartbeat_interval": 0.2})
                    assert (await comm.recv())["op"] == "request"
                    await comm.send(frame)
                    while True:
                        ops.append((await comm.recv())["op"])
                except CommError:
                    closed.set()

            lst = comm_core.listener("inproc://", fake_scheduler)
            await lst.start()
            worker = AsyncWorker(lst.address, once=True, reply_timeout=5.0)
            try:
                executed = await asyncio.wait_for(worker.run(), timeout=5.0)
                await asyncio.wait_for(closed.wait(), timeout=5.0)
            finally:
                await lst.stop()
            return executed, ops

        executed, ops = asyncio.run(scenario())
        assert executed == 0
        assert set(ops) <= {"heartbeat"}


class TestWelcomeHeartbeatInterval:
    @pytest.mark.parametrize("interval", ["soon", 0, float("nan"), -1.0, True],
                             ids=["string", "zero", "nan", "negative", "bool"])
    def test_bad_interval_is_a_protocol_error_not_a_crash(self, interval):
        """The worker drops the connection before pulling any cell, and
        ``run()`` returns (a worker without ``once`` would reconnect)."""

        from repro.distributed.comm import core as comm_core
        from repro.distributed.comm.core import CommError
        from repro.distributed.worker import AsyncWorker

        async def scenario():
            ops = []
            closed = asyncio.Event()

            async def fake_scheduler(comm):
                try:
                    assert (await comm.recv())["op"] == "hello"
                    await comm.send({"op": "welcome", "heartbeat_interval": interval})
                    while True:
                        ops.append((await comm.recv())["op"])
                except CommError:
                    closed.set()

            lst = comm_core.listener("inproc://", fake_scheduler)
            await lst.start()
            worker = AsyncWorker(lst.address, once=True, reply_timeout=5.0)
            try:
                executed = await asyncio.wait_for(worker.run(), timeout=5.0)
                await asyncio.wait_for(closed.wait(), timeout=5.0)
            finally:
                await lst.stop()
            return executed, ops

        executed, ops = asyncio.run(scenario())
        assert executed == 0
        assert ops == []


class TestStallGuard:
    def test_campaign_with_no_workers_raises_campaign_stalled(self):
        executor = DistributedExecutor(
            workers=0, stall_timeout=0.5, heartbeat_interval=0.1,
            heartbeat_timeout=1.0,
        )
        cells = expand_grid({"x": [1, 2]}, repetitions=1)
        with pytest.raises(CampaignStalled):
            list(executor.map(CellFunction(plain_cell), cells))

    def test_concurrent_campaigns_on_one_scheduler_are_rejected(self, wire):
        scheduler = Scheduler(heartbeat_interval=0.1, heartbeat_timeout=5.0).start()
        cells = expand_grid({"x": [1]}, repetitions=1)
        results, errors = [], []
        consumer = threading.Thread(
            target=collect_campaign, args=(scheduler, cells, results, errors)
        )
        consumer.start()
        worker = None
        try:
            time.sleep(0.2)  # let the first campaign register itself
            with pytest.raises(RuntimeError):
                next(iter(scheduler.run_campaign(CellFunction(plain_cell), cells)))
            worker = FakeWorker(wire, scheduler.address, "finisher")
            worker.finish(worker.take_cell())
            consumer.join(timeout=10.0)
            assert not consumer.is_alive() and not errors and len(results) == 1
        finally:
            if worker is not None:
                worker.close()
            scheduler.close()
            consumer.join(timeout=5.0)


class TestWorkerReconnectPromptness:
    def test_connection_closed_mid_request_does_not_wedge_the_worker(self):
        """A scheduler vanishing between campaigns must not cost reply_timeout.

        Regression: the worker sends ``request`` and the scheduler closes the
        connection before replying (exactly what happens when consecutive
        scenarios tear one scheduler down and bind the next).  The reader's
        death has to wake the blocked pull immediately -- a worker that sits
        out the full reply timeout on the dead comm eats into ``max_idle``
        and self-reaps instead of serving the next campaign.
        """

        import asyncio

        from repro.distributed.comm import core as comm_core
        from repro.distributed.worker import AsyncWorker

        async def scenario():
            slammed = asyncio.Event()

            async def slam_after_request(comm):
                message = await comm.recv()
                if message["op"] != "hello":  # a post-slam reconnect raced in
                    await comm.close()
                    return
                await comm.send({"op": "welcome", "heartbeat_interval": 0.2})
                message = await comm.recv()
                assert message["op"] == "request"
                await comm.close()  # no reply: the campaign is over
                slammed.set()

            lst = comm_core.listener("inproc://", slam_after_request)
            await lst.start()
            worker = AsyncWorker(
                lst.address,
                max_idle=0.5,
                reconnect_delay=0.05,
                reply_timeout=5.0,
            )
            run = asyncio.create_task(worker.run())
            await asyncio.wait_for(slammed.wait(), timeout=5.0)
            started = time.monotonic()
            # The scheduler is gone for good: reconnects now fail, so the
            # worker must notice the dead comm, retry, and idle out.
            await lst.stop()
            await asyncio.wait_for(run, timeout=10.0)
            return time.monotonic() - started

        elapsed = asyncio.run(scenario())
        # max_idle (0.5s) plus slack; a wedge would take reply_timeout (5s).
        assert elapsed < 3.0, f"worker wedged on a dead connection ({elapsed:.1f}s)"
