"""Worker-side spans crossing the wire: the ``telemetry`` op end to end.

The contracts pinned here:

* a worker serving a bus-backed scheduler forwards its local span events,
  which reappear on the scheduler bus under ``worker.<id>.*`` topics;
* the scheduler aggregates forwarded spans into per-worker busy/idle/
  overhead seconds and an occupancy ratio in ``telemetry_snapshot``;
* forwarding is additive: result rows are bit-identical with telemetry
  on, off (``telemetry=False``), or refused by the worker, on both the
  ``inproc://`` and ``tcp://`` backends;
* a malicious/chatty frame cannot grow unbounded scheduler work (the
  per-frame event cap).
"""

from __future__ import annotations

import pytest

from repro.distributed import Scheduler
from repro.distributed.scheduler import _WorkerConn
from repro.experiments.grid import CellFunction, expand_grid
from repro.telemetry import TelemetryBus, WORKER_TOPIC_PREFIX, worker_topic


def metrics(seed, i):
    return {"value": (seed * 13 + i) % 997, "i": i}


def run_fleet(address, *, telemetry, workers=3, cells_n=24, worker_kwargs=None):
    cells = expand_grid({"i": list(range(cells_n))}, repetitions=1, base_seed=99)
    fn = CellFunction(metrics)
    with Scheduler(address, telemetry=telemetry, stall_timeout=30.0) as scheduler:
        for _ in range(workers):
            scheduler.spawn_local_worker(inline=True, **(worker_kwargs or {}))
        outcomes = list(scheduler.run_campaign(fn, cells))
        snapshot = scheduler.telemetry_snapshot()
    return outcomes, snapshot


def serial_metrics(cells_n=24):
    cells = expand_grid({"i": list(range(cells_n))}, repetitions=1, base_seed=99)
    fn = CellFunction(metrics)
    return [fn(cell).metrics for cell in cells]


class TestForwarding:
    @pytest.mark.parametrize("address", ["inproc://", "tcp://127.0.0.1:0"])
    def test_worker_spans_reach_the_scheduler_bus(self, address):
        bus = TelemetryBus()
        outcomes, snapshot = run_fleet(address, telemetry=bus)
        assert [o.metrics for o in outcomes] == serial_metrics()

        worker_topics = {
            topic for topic in bus.topics() if topic.startswith(WORKER_TOPIC_PREFIX)
        }
        assert worker_topics, "no forwarded worker.* topics on the scheduler bus"
        names = set()
        for topic in worker_topics:
            for event in bus.events(topic):
                if event.payload.get("kind") == "span":
                    names.add(event.payload["name"])
        assert {"cell.execute", "cell.deserialize", "cell.serialize"} <= names

        workers = snapshot["workers"]
        busy = [entry for entry in workers.values() if entry["cells"] > 0]
        assert busy, "no worker reported executed cells through telemetry"
        for entry in busy:
            assert entry["busy_seconds"] > 0.0
            assert entry["events_forwarded"] > 0
            assert entry["occupancy"] is None or 0.0 <= entry["occupancy"] <= 1.0
        assert sum(entry["cells"] for entry in workers.values()) == 24

    @pytest.mark.parametrize("address", ["inproc://", "tcp://127.0.0.1:0"])
    def test_rows_identical_with_telemetry_off(self, address):
        outcomes, snapshot = run_fleet(address, telemetry=False)
        assert [o.metrics for o in outcomes] == serial_metrics()
        for entry in snapshot["workers"].values():
            assert entry["events_forwarded"] == 0

    def test_worker_refusal_forwards_nothing(self):
        bus = TelemetryBus()
        outcomes, _ = run_fleet("inproc://", telemetry=bus, workers=2,
                                worker_kwargs={"telemetry": False})
        assert [o.metrics for o in outcomes] == serial_metrics()
        assert not any(
            topic.startswith(WORKER_TOPIC_PREFIX) for topic in bus.topics()
        )


class TestFrameHandling:
    def make_scheduler_with_conn(self):
        bus = TelemetryBus()
        scheduler = Scheduler("inproc://", telemetry=bus)
        conn = _WorkerConn(worker_id="w1", comm=None, last_seen=0.0)
        return bus, scheduler, conn

    def test_handle_telemetry_republishes_and_aggregates(self):
        bus, scheduler, conn = self.make_scheduler_with_conn()
        events = [
            {"topic": "spans", "seq": 1,
             "payload": {"kind": "span", "name": "cell.execute", "seconds": 2.0}},
            {"topic": "spans", "seq": 2,
             "payload": {"kind": "span", "name": "worker.idle", "seconds": 1.0}},
            {"topic": "spans", "seq": 3,
             "payload": {"kind": "span", "name": "cell.serialize", "seconds": 0.5}},
        ]
        scheduler._handle_telemetry(conn, {"events": events, "dropped": 4})
        assert conn.busy_seconds == 2.0
        assert conn.idle_seconds == 1.0
        assert conn.overhead_seconds == 0.5
        assert conn.cells_reported == 1
        assert conn.events_forwarded == 3
        assert conn.forward_dropped == 4
        republished = bus.events(worker_topic("w1", "spans"))
        assert [event.payload["name"] for event in republished] == [
            "cell.execute", "worker.idle", "cell.serialize",
        ]
        assert scheduler._occupancy(conn) == pytest.approx(2.0 / 3.5)

    def test_oversized_frames_are_truncated(self):
        bus, scheduler, conn = self.make_scheduler_with_conn()
        cap = scheduler.TELEMETRY_FRAME_CAP
        events = [
            {"topic": "spans", "seq": index, "payload": {"kind": "tick"}}
            for index in range(cap + 50)
        ]
        scheduler._handle_telemetry(conn, {"events": events, "dropped": 0})
        assert conn.events_forwarded == cap
        assert len(bus.events(worker_topic("w1", "spans"), limit=4096)) <= cap

    def test_malformed_frames_are_ignored(self):
        bus, scheduler, conn = self.make_scheduler_with_conn()
        scheduler._handle_telemetry(conn, {"events": "nope"})
        scheduler._handle_telemetry(conn, {"events": [None, 7, {"payload": []}]})
        assert conn.events_forwarded == 0
        assert bus.published == 0
