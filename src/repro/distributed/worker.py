"""The campaign worker: connect, register, heartbeat, pull cells, stream results.

A worker is an asyncio state machine around one comm connection to the
scheduler (:mod:`repro.distributed.scheduler`):

* connect and ``hello``, read the ``welcome`` (which advertises the
  heartbeat interval);
* loop: ``request`` one cell; a ``task`` reply is executed and its
  ``result`` sent before the next request, an ``idle`` reply means sleep
  briefly and re-request;
* a heartbeat task keeps ``heartbeat`` frames flowing on the same comm
  while a cell executes (cells run in a thread via ``run_in_executor``, so
  the event loop -- and with it heartbeats -- stays live during long
  cells);
* when the ``welcome`` advertises ``telemetry``, the worker times each
  cell's deserialize / execute / serialize phases plus its own idle waits
  with monotonic spans on a private local bus, and a pump task batches
  those events into additive ``telemetry`` frames on the same comm (before
  each result, and periodically while idle).  The scheduler re-publishes
  them under ``worker.<id>.*`` topics; see
  :meth:`Scheduler._handle_telemetry`.  Telemetry frames are fire-and-
  forget metadata: results and digests are identical with them on or off.

The cell function travels pickled inside the first ``task`` of each
campaign and is cached for the campaign's duration, so it must either be
importable from the worker process (module-level functions,
``functools.partial`` of them -- true for every registered scenario and
sweep) or the worker must share the submitting process: forked, as
:class:`~repro.distributed.executor.DistributedExecutor` spawns its local
``tcp://`` mini-cluster, or literally the same process, as ``inproc://``
fleets are -- both keep even test-local functions picklable by reference.

When the scheduler goes away the worker loops back to reconnecting, so one
long-lived worker serves any number of consecutive campaigns; ``max_idle``
bounds how long it lingers without useful work (connection attempts
included) before exiting -- the knob CI uses to make workers self-reap.

:class:`AsyncWorker` is the state machine itself (1000 of them fit on one
event loop -- see :meth:`Scheduler.spawn_local_worker`); worker processes
and the CLI run one on a fresh event loop through :func:`run_worker`.
"""

from __future__ import annotations

import asyncio
import os
import socket
import time
import uuid
from typing import Any, Callable, Dict, Optional, Tuple

from repro.distributed import protocol
from repro.distributed.comm import core as comm_core
from repro.distributed.comm.core import Comm, CommError
from repro.experiments.grid import Cell, CellOutcome
from repro.telemetry.bus import Subscription, TelemetryBus
from repro.telemetry.spans import SpanRecorder

#: How long a worker waits between connection attempts while the scheduler
#: is down (e.g. between two campaigns bound to the same address).
RECONNECT_DELAY = 0.2

#: Upper bound on events per ``telemetry`` frame; anything beyond waits for
#: the next pump tick (the local bus buffer is itself bounded, so a chatty
#: worker drops oldest events rather than growing frames without bound).
TELEMETRY_BATCH = 256

#: Ring/buffer size of the worker-local telemetry bus.
TELEMETRY_BUFFER = 4096

#: How long a worker waits for the scheduler's reply to a work request (or
#: the welcome) before declaring the connection -- or its host -- dead.
#: Replies are immediate in a healthy system; only the worker's own cell
#: execution is slow, and requests are only sent between cells.
REPLY_TIMEOUT = 30.0


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class AsyncWorker:
    """One worker's connect-and-serve state machine (runs on any event loop)."""

    def __init__(
        self,
        address: str,
        *,
        worker_id: Optional[str] = None,
        max_idle: Optional[float] = None,
        reconnect_delay: float = RECONNECT_DELAY,
        once: bool = False,
        log: Optional[Callable[[str], None]] = None,
        reply_timeout: float = REPLY_TIMEOUT,
        inline: bool = False,
        telemetry: Optional[bool] = None,
    ) -> None:
        comm_core.validate_address(address)
        self.address = str(address).strip()
        self.worker_id = worker_id or default_worker_id()
        self.max_idle = max_idle
        self.reconnect_delay = reconnect_delay
        self.once = once
        self.log = log or (lambda message: None)
        self.reply_timeout = reply_timeout
        #: Span capture + forwarding: None follows the scheduler's welcome
        #: advertisement (on iff the scheduler has a bus), False forces off.
        self.telemetry = telemetry
        #: Execute cells inline on the event loop instead of a thread.  Only
        #: sensible for simulated fleets with cheap cells: it skips the
        #: executor hop but blocks the loop for the cell's duration.
        self.inline = inline
        self.cells_executed = 0
        self.events_forwarded = 0
        self._last_useful = time.monotonic()
        # Per-connection state (reset by _serve).
        self._task: Optional[Dict[str, Any]] = None  # received, not yet started
        self._fn: Tuple[Optional[str], Optional[Callable[[Cell], CellOutcome]]] = (None, None)
        self._idle_delay: Optional[float] = None
        self._wake: Optional[asyncio.Event] = None
        self._spans = SpanRecorder(None)
        self._telemetry_sub: Optional[Subscription] = None

    # -- outer loop ---------------------------------------------------------

    async def run(self) -> int:
        """Serve campaigns until idle for too long; returns cells executed."""

        while True:
            try:
                comm = await comm_core.connect(self.address)
            except (CommError, OSError):
                if self._idled_out():
                    return self.cells_executed
                await asyncio.sleep(self.reconnect_delay)
                continue
            self._mark_useful()
            try:
                await self._serve(comm)
            except (CommError, OSError, asyncio.TimeoutError):
                pass  # scheduler went away; reconnect (or idle out) below
            finally:
                await comm.close()
            if self.once or self._idled_out():
                return self.cells_executed

    def _idled_out(self) -> bool:
        return (
            self.max_idle is not None
            and time.monotonic() - self._last_useful > self.max_idle
        )

    def _mark_useful(self) -> None:
        self._last_useful = time.monotonic()

    # -- one connection -----------------------------------------------------

    async def _serve(self, comm: Comm) -> None:
        self._task = None
        self._fn = (None, None)
        self._idle_delay = None
        self._wake = asyncio.Event()
        self._spans = SpanRecorder(None)
        self._telemetry_sub = None

        await comm.send({"op": "hello", "worker": self.worker_id})
        welcome = await asyncio.wait_for(comm.recv(), timeout=self.reply_timeout)
        if welcome.get("op") != "welcome":
            raise protocol.ProtocolError(f"expected welcome, got {welcome!r}")
        heartbeat_interval = protocol.seconds_field(welcome, "heartbeat_interval", positive=True)
        telemetry_on = bool(welcome.get("telemetry")) and self.telemetry is not False
        if telemetry_on:
            # A private local bus: spans land here first, the pump batches
            # them into telemetry frames.  Bounded everywhere -- a burst
            # beyond the buffer drops oldest events, never blocks a cell.
            local_bus = TelemetryBus(history=64, subscriber_buffer=TELEMETRY_BUFFER)
            self._telemetry_sub = local_bus.subscribe()
            self._spans = SpanRecorder(local_bus, worker=self.worker_id)
        self.log(f"worker {self.worker_id} connected to {self.address}")

        reader = asyncio.create_task(self._reader(comm))
        # A dying reader (the scheduler closed the connection, e.g. between
        # two campaigns) must wake a blocked _pull immediately -- otherwise
        # the worker wedges for the full reply timeout on a dead comm, and a
        # max_idle near that timeout makes it exit instead of reconnecting.
        wake = self._wake
        reader.add_done_callback(lambda _task: wake.set())
        beat = asyncio.create_task(self._heartbeat(comm, heartbeat_interval))
        pump: Optional["asyncio.Task"] = None
        if telemetry_on:
            pump = asyncio.create_task(
                self._telemetry_pump(comm, max(heartbeat_interval, 0.1))
            )
        tasks = tuple(task for task in (reader, beat, pump) if task is not None)
        try:
            while True:
                if self._task is not None:
                    item, self._task = self._task, None
                    await self._execute(comm, item)
                    continue
                idle_started = time.monotonic() if self._spans.enabled else None
                pulled = await self._pull(comm, reader)
                if idle_started is not None:
                    self._spans.record("worker.idle", time.monotonic() - idle_started)
                if not pulled:
                    return  # idled out; bye already sent
        finally:
            for task in tasks:
                task.cancel()
            for task in tasks:
                try:
                    await task
                except (asyncio.CancelledError, CommError, OSError):
                    pass

    async def _pull(self, comm: Comm, reader: "asyncio.Task") -> bool:
        """Request work until a task arrives; False = disconnect."""

        assert self._wake is not None
        while self._task is None:
            self._raise_if_dead(reader)
            self._wake.clear()
            if self._task is not None:  # arrived between the check and the clear
                return True
            await comm.send({"op": "request"})
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=self.reply_timeout)
            except asyncio.TimeoutError:
                raise protocol.ConnectionClosed(
                    f"scheduler at {self.address} did not answer a work request "
                    f"within {self.reply_timeout:.0f}s"
                ) from None
            self._raise_if_dead(reader)
            if self._task is not None:
                return True
            if self._idle_delay is not None:
                delay, self._idle_delay = self._idle_delay, None
                if self._idled_out():
                    await comm.send({"op": "bye", "worker": self.worker_id})
                    return False
                await asyncio.sleep(delay)
        return True

    @staticmethod
    def _raise_if_dead(reader: "asyncio.Task") -> None:
        if reader.done():
            error = reader.exception()
            if error is not None:
                raise error
            raise protocol.ConnectionClosed("scheduler connection reader exited")

    async def _reader(self, comm: Comm) -> None:
        """Dispatch every inbound frame: ``task`` and ``idle`` replies."""

        assert self._wake is not None
        while True:
            message = await comm.recv()
            op = message.get("op")
            if op == "task":
                campaign = str(message.get("campaign"))
                if "fn" in message:
                    self._fn = (campaign, protocol.decode_payload(str(message["fn"])))
                self._task = {
                    "campaign": campaign,
                    "index": protocol.int_field(message, "index"),
                    "attempt": protocol.int_field(message, "attempt"),
                    "cell": message.get("cell"),
                }
                self._wake.set()
            elif op == "idle":
                self._idle_delay = protocol.seconds_field(message, "delay")
                self._wake.set()
            else:
                raise protocol.ProtocolError(f"unexpected op {op!r} from scheduler")

    async def _heartbeat(self, comm: Comm, interval: float) -> None:
        try:
            while True:
                await asyncio.sleep(interval)
                await comm.send({"op": "heartbeat", "worker": self.worker_id})
        except (CommError, OSError):
            return  # main loop will observe the dead comm itself

    # -- telemetry forwarding ------------------------------------------------

    async def _telemetry_pump(self, comm: Comm, interval: float) -> None:
        """Periodically relay locally-buffered telemetry to the scheduler.

        :meth:`_execute` also forwards right before each result frame, so
        per-cell spans always reach the scheduler before the campaign can
        complete; this task covers idle periods and the long tail.  On
        cancellation (connection teardown) it attempts one final drain.
        """

        try:
            while True:
                await asyncio.sleep(interval)
                await self._forward_telemetry(comm)
        except asyncio.CancelledError:
            try:
                await self._forward_telemetry(comm)
            except (CommError, OSError):
                pass
            raise
        except (CommError, OSError):
            return  # main loop will observe the dead comm itself

    async def _forward_telemetry(self, comm: Comm) -> None:
        """Send one bounded ``telemetry`` frame if any events are queued."""

        subscription = self._telemetry_sub
        if subscription is None:
            return
        events = subscription.poll(TELEMETRY_BATCH)
        if not events:
            return
        self.events_forwarded += len(events)
        await comm.send(
            {
                "op": "telemetry",
                "worker": self.worker_id,
                "events": [event.as_dict() for event in events],
                "dropped": subscription.dropped,
            }
        )

    # -- cell execution -----------------------------------------------------

    async def _execute(self, comm: Comm, item: Dict[str, Any]) -> None:
        campaign = item["campaign"]
        spans = self._spans
        with spans.span("cell.deserialize", campaign=campaign, index=item["index"]):
            cell: Cell = protocol.decode_payload(str(item["cell"]))
        fn_campaign, fn = self._fn
        if fn_campaign != campaign or fn is None:
            raise protocol.ProtocolError(
                f"task for campaign {campaign} arrived without a cell function"
            )
        with spans.span("cell.execute", campaign=campaign, index=item["index"]):
            if self.inline:
                outcome = self._call(fn, cell)
            else:
                outcome = await asyncio.get_running_loop().run_in_executor(
                    None, self._call, fn, cell
                )
        self.cells_executed += 1
        self._mark_useful()
        with spans.span("cell.serialize", campaign=campaign, index=item["index"]):
            encoded = protocol.encode_payload(outcome)
        # Telemetry first: the frames are ordered, so this cell's spans are
        # already scheduler-side when the result lands (a campaign can tear
        # the scheduler down the instant its last result arrives).
        await self._forward_telemetry(comm)
        await comm.send(
            {
                "op": "result",
                "worker": self.worker_id,
                "campaign": campaign,
                "index": item["index"],
                "attempt": item["attempt"],
                "outcome": encoded,
            }
        )

    @staticmethod
    def _call(fn: Callable[[Cell], CellOutcome], cell: Cell) -> CellOutcome:
        try:
            return fn(cell)
        except (KeyboardInterrupt, SystemExit):
            # Deliberately propagate: the connection drops and the
            # scheduler's worker-loss path retries the cell elsewhere --
            # Ctrl-C on one worker must cost a retry, never poison the
            # campaign with a fake cell failure.
            raise
        except Exception as error:
            import traceback

            return CellOutcome(
                cell=cell,
                error=traceback.format_exc(),
                error_type=type(error).__name__,
            )


def run_worker(
    address: str,
    *,
    worker_id: Optional[str] = None,
    max_idle: Optional[float] = None,
    once: bool = False,
    log: Optional[Callable[[str], None]] = None,
    telemetry: Optional[bool] = None,
) -> int:
    """Serve campaigns on a fresh event loop; returns cells executed.

    The module-level entry point of worker processes and the CLI (picklable
    as a ``multiprocessing`` target).
    """

    return asyncio.run(
        AsyncWorker(
            address,
            worker_id=worker_id,
            max_idle=max_idle,
            once=once,
            log=log,
            telemetry=telemetry,
        ).run()
    )
