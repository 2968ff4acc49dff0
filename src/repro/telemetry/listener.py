"""The :class:`SweepListener` protocol: how sweeps report cell lifecycle.

A listener passed as ``listener=`` to
:func:`repro.experiments.harness.run_experiment` or
:func:`repro.scenarios.composer.run_scenario` receives typed lifecycle
notifications; the default telemetry bus
(:class:`repro.telemetry.bus.TelemetryBus`) is itself a listener, so every
sweep is observable from the dashboard without any caller plumbing.

Listeners are observation only: they run in the harness thread between
cells, they receive the same arguments whatever the executor, and the rows
of the sweep must be byte-identical whether zero or many listeners watch.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable


class SweepListener:
    """Base class / protocol for sweep observation.  All methods are no-ops.

    ``experiment`` is the sweep name, ``cell`` an
    :class:`repro.experiments.grid.Cell`, ``outcome`` a
    :class:`~repro.experiments.grid.CellOutcome` and ``row`` the composed
    flat result row.  ``on_cell_start`` fires when the harness begins
    waiting on that cell's outcome -- under a pool executor the true remote
    start is not observable, so treat it as "cell entered the live window".
    """

    def on_sweep_start(self, experiment: str, total_cells: int) -> None:
        """The sweep expanded its grid; ``total_cells`` outcomes will follow."""

    def on_cell_start(self, experiment: str, cell: Any) -> None:
        """The harness is now waiting on ``cell``'s outcome."""

    def on_row(self, experiment: str, cell: Any, row: Dict[str, Any], outcome: Any) -> None:
        """A cell completed successfully and produced ``row``."""

    def on_error(self, experiment: str, cell: Any, outcome: Any) -> None:
        """A cell failed (only under ``capture_errors=True`` semantics)."""

    def on_sweep_end(self, experiment: str, result: Any) -> None:
        """The sweep finished (also on error paths, with the partial result)."""


class FanoutListener(SweepListener):
    """Forward every notification to each listener, in order.

    Listener exceptions propagate: a broken observer is a caller bug, and
    hiding it would make sweeps silently unobserved.
    """

    def __init__(self, listeners: Iterable[SweepListener]) -> None:
        self.listeners = [listener for listener in listeners if listener is not None]

    def on_sweep_start(self, experiment: str, total_cells: int) -> None:
        for listener in self.listeners:
            listener.on_sweep_start(experiment, total_cells)

    def on_cell_start(self, experiment: str, cell: Any) -> None:
        for listener in self.listeners:
            listener.on_cell_start(experiment, cell)

    def on_row(self, experiment: str, cell: Any, row: Dict[str, Any], outcome: Any) -> None:
        for listener in self.listeners:
            listener.on_row(experiment, cell, row, outcome)

    def on_error(self, experiment: str, cell: Any, outcome: Any) -> None:
        for listener in self.listeners:
            listener.on_error(experiment, cell, outcome)

    def on_sweep_end(self, experiment: str, result: Any) -> None:
        for listener in self.listeners:
            listener.on_sweep_end(experiment, result)
