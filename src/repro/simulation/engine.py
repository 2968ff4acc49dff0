"""The discrete-event simulation kernel.

The :class:`Simulator` owns the clock and the event queue.  Two programming
styles are supported:

* **callbacks** -- ``sim.schedule(delay, fn)`` runs ``fn()`` after ``delay``
  time units; this is the style used by the cluster and grid simulators;
* **processes** -- generator functions that ``yield Timeout(d)`` (sleep) or
  ``yield event`` objects created by :meth:`Simulator.event` (wait until the
  event is succeeded).  Processes are convenient for writing scenario scripts
  in tests and examples.

The kernel is deterministic: simultaneous events run in scheduling order
(see :mod:`repro.simulation.events`), and there is no hidden source of
randomness -- all randomness lives in the workload generators, which take
explicit seeds.

Fast path: the run loop works directly on the queue's tuple heap (no
per-event ``peek``/``pop`` method round-trips) and dispatches every event
tied at the current timestamp in one batch, re-checking only the stop /
max-events guards between callbacks.  Event labels are allocated lazily:
unless ``trace_labels`` is enabled on the simulator, scheduling call sites
skip building the per-event description strings entirely.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from repro.simulation.events import Event, EventQueue


@dataclass
class Timeout:
    """Yielded by a process to sleep for ``delay`` time units."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("Timeout delay must be >= 0")


class SimEvent:
    """A one-shot condition processes can wait on.

    ``succeed(value)`` wakes every waiting process and stores ``value`` which
    becomes the result of the ``yield``.
    """

    __slots__ = ("_sim", "label", "triggered", "value", "_waiters")

    def __init__(self, sim: "Simulator", label: str = "") -> None:
        self._sim = sim
        self.label = label
        self.triggered = False
        self.value: Any = None
        self._waiters: List["Process"] = []

    def succeed(self, value: Any = None) -> None:
        if self.triggered:
            raise RuntimeError(f"event {self.label!r} already triggered")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        # Zero-delay resumes keep the kernel deterministic: each waiter gets
        # its own event at the current time, so the queue's (time, priority,
        # seq) order resumes waiters FIFO (registration order), interleaved
        # after anything already scheduled at this timestamp -- and when
        # several SimEvents trigger at the same instant, their waiters wake
        # in succeed() order.  The value is bound at schedule time so a later
        # mutation of the event cannot change what an earlier waiter sees.
        for process in waiters:
            self._sim.schedule(0.0, lambda p=process, v=value: p._resume(v))

    def _add_waiter(self, process: "Process") -> None:
        if self.triggered:
            self._sim.schedule(0.0, lambda p=process, v=self.value: p._resume(v))
        else:
            self._waiters.append(process)


class Process:
    """A generator-based simulation process."""

    __slots__ = ("_sim", "_generator", "name", "finished", "result", "completion_event")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        self._sim = sim
        self._generator = generator
        self.name = name or repr(generator)
        self.finished = False
        self.result: Any = None
        self.completion_event = SimEvent(sim, label=f"{self.name}.done")

    def _start(self) -> None:
        sim = self._sim
        label = f"start {self.name}" if sim.trace_labels else ""
        sim.schedule(0.0, lambda: self._resume(None), label=label)

    def _resume(self, value: Any) -> None:
        if self.finished:
            return
        try:
            yielded = self._generator.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.completion_event.succeed(stop.value)
            return
        self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            sim = self._sim
            label = f"wake {self.name}" if sim.trace_labels else ""
            sim.schedule(yielded.delay, lambda: self._resume(None), label=label)
        elif isinstance(yielded, SimEvent):
            yielded._add_waiter(self)
        elif isinstance(yielded, Process):
            yielded.completion_event._add_waiter(self)
        else:
            raise TypeError(
                f"process {self.name!r} yielded an unsupported object: {yielded!r}"
            )


class Simulator:
    """Discrete-event simulation kernel: clock + event queue + process runner.

    ``trace_labels`` opts into per-event description strings (useful when
    debugging a simulation); it is off by default because building one
    f-string per scheduled event measurably slows the hot path down.
    """

    __slots__ = (
        "_queue",
        "_now",
        "_running",
        "_stop_requested",
        "processed_events",
        "trace_labels",
    )

    def __init__(self, *, trace_labels: bool = False) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._stop_requested = False
        self.processed_events = 0
        self.trace_labels = trace_labels

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""

        return self._now

    # -- scheduling ----------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Run ``callback`` after ``delay`` time units (relative to now)."""

        if delay < 0:
            raise ValueError("cannot schedule in the past (negative delay)")
        return self._queue.push(self._now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Run ``callback`` at absolute simulation time ``time`` (>= now)."""

        if time < self._now - 1e-12:
            raise ValueError(
                f"cannot schedule at {time}, current time is already {self._now}"
            )
        return self._queue.push(max(time, self._now), callback, priority=priority, label=label)

    def cancel(self, event: Event) -> None:
        self._queue.cancel(event)

    # -- processes -----------------------------------------------------------
    def process(self, generator: Generator, name: str = "") -> Process:
        """Register and start a generator-based process."""

        process = Process(self, generator, name)
        process._start()
        return process

    def event(self, label: str = "") -> SimEvent:
        """Create a waitable one-shot event."""

        return SimEvent(self, label)

    # -- run loop ------------------------------------------------------------
    def run(self, until: Optional[float] = None, *, max_events: Optional[int] = None) -> float:
        """Process events until the queue is empty, ``until`` or ``max_events``.

        Returns the simulation time reached.
        """

        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        self._stop_requested = False
        queue = self._queue
        heap = queue._heap
        pop = heapq.heappop
        limit = None if until is None else until + 1e-12
        # ``remaining`` mirrors the historical semantics: at least one event
        # is dispatched before a (possibly zero) max_events budget is checked.
        remaining = max_events
        try:
            while heap:
                head = heap[0]
                if head[3].cancelled:
                    pop(heap)
                    continue
                now = head[0]
                if limit is not None and now > limit:
                    self._now = until  # type: ignore[assignment]
                    return self._now
                self._now = now
                # Batched same-time dispatch: every live event tied at ``now``
                # is inside the horizon checked above, so the inner loop pays
                # only the pop + cancelled test per event.  Events scheduled
                # by a callback at the current time join the batch in (time,
                # priority, seq) order; cancellations made mid-batch are
                # honoured because each event is re-checked when popped.
                while heap and heap[0][0] == now:
                    event = pop(heap)[3]
                    if event.cancelled:
                        continue
                    queue._live -= 1
                    event.callback()  # type: ignore[misc]
                    self.processed_events += 1
                    if self._stop_requested:
                        return self._now
                    if remaining is not None:
                        remaining -= 1
                        if remaining <= 0:
                            return self._now
            # Queue fully drained: advance the clock to the horizon.
            if until is not None:
                self._now = max(self._now, until)
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""

        self._stop_requested = True

    def pending_events(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:.3f}, pending={len(self._queue)})"

