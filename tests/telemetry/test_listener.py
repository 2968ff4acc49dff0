"""SweepListener protocol: lifecycle delivery and fan-out."""

from __future__ import annotations

import pytest

from repro.experiments.harness import run_experiment
from repro.telemetry import FanoutListener, SweepListener


def seeded_value(seed: int, k: int) -> dict:
    return {"value": seed * 10 + k}


class Recorder(SweepListener):
    def __init__(self) -> None:
        self.calls = []

    def on_sweep_start(self, experiment, total_cells):
        self.calls.append(("sweep-start", experiment, total_cells))

    def on_cell_start(self, experiment, cell):
        self.calls.append(("cell-start", cell.index))

    def on_row(self, experiment, cell, row, outcome):
        self.calls.append(("row", cell.index, row["value"]))

    def on_error(self, experiment, cell, outcome):
        self.calls.append(("error", cell.index, outcome.error_type))

    def on_sweep_end(self, experiment, result):
        self.calls.append(("sweep-end", experiment, len(result.rows)))


class TestListenerLifecycle:
    def test_listener_sees_full_lifecycle_in_order(self):
        recorder = Recorder()
        result = run_experiment(
            "lst", seeded_value, {"k": [1, 2]},
            repetitions=1, executor="serial", listener=recorder,
        )
        assert recorder.calls[0] == ("sweep-start", "lst", 2)
        assert recorder.calls[-1] == ("sweep-end", "lst", 2)
        rows = [call for call in recorder.calls if call[0] == "row"]
        assert [row[2] for row in rows] == [row["value"] for row in result.rows]
        starts = [call for call in recorder.calls if call[0] == "cell-start"]
        assert len(starts) == 2

    def test_sweep_end_fires_even_when_a_cell_raises(self):
        def failing(seed: int, k: int) -> dict:
            raise ValueError("boom")

        recorder = Recorder()
        with pytest.raises(Exception):
            run_experiment("bad", failing, {"k": [1]},
                           repetitions=1, executor="serial", listener=recorder)
        assert recorder.calls[-1][0] == "sweep-end"

    def test_run_scenario_forwards_listener(self):
        from repro.scenarios import registry
        from repro.scenarios.composer import run_scenario

        class Rows(SweepListener):
            def __init__(self):
                self.rows = []

            def on_row(self, experiment, cell, row, outcome):
                self.rows.append(row)

        listener = Rows()
        result = run_scenario(registry.get("cluster.policy-panel"), smoke=True,
                              listener=listener)
        assert listener.rows == result.rows


class TestFanout:
    def test_fanout_filters_none_and_propagates_exceptions(self):
        class Broken(SweepListener):
            def on_sweep_start(self, experiment, total_cells):
                raise RuntimeError("observer bug")

        fanout = FanoutListener([None, Broken()])
        assert len(fanout.listeners) == 1
        with pytest.raises(RuntimeError, match="observer bug"):
            fanout.on_sweep_start("exp", 1)
