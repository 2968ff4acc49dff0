"""Generic experiment runner: parameter sweeps with seeded repetitions.

Every benchmark of the repository is a thin wrapper around this harness: it
declares a grid of parameters, a function running one configuration with one
seed and returning a flat ``dict`` of metrics, and the harness takes care of
running the cross product, collecting the rows and aggregating repetitions.

The sweep is organised in three separable stages:

1. **grid expansion** (:func:`repro.experiments.grid.expand_grid`) turns the
   declaration into an ordered list of self-contained, seeded cells;
2. **cell execution** maps a picklable cell function over the cells through
   an :class:`~repro.experiments.executors.Executor` -- serial, or a
   ``multiprocessing`` pool selected with ``executor=`` / the ``REPRO_JOBS``
   environment variable -- streaming outcomes back in submission order, with
   per-cell timing and error capture;
3. **aggregation** folds the streamed rows into summaries
   (:class:`repro.metrics.aggregate.StreamingAggregator`).

Because cells carry deterministic seeds and executors preserve order, the
rows of a parallel run are identical to a serial run.  An optional journal
(:class:`repro.experiments.journal.CampaignJournal`) makes a sweep
resumable on every executor: cells it already holds are replayed before
dispatch, and every other cell is appended as the harness consumes it.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.experiments.executors import ExecutorSpec, resolve_executor
from repro.experiments.grid import Cell, CellFunction, CellOutcome, RunFunction, expand_grid
from repro.experiments.journal import CampaignJournal
from repro.metrics.aggregate import StreamingAggregator, Summary, aggregate_runs, group_by


class CellExecutionError(RuntimeError):
    """A cell failed; carries the failing configuration and worker traceback.

    Instances must survive process and socket boundaries: a nested harness
    may raise one inside a pool worker, and the distributed runtime moves
    failure information over TCP.  The default exception reduction would
    try to re-call ``__init__(message)`` and fail (the constructor wants an
    experiment and an outcome), so pickling is routed through
    :func:`_restore_cell_execution_error`, and :meth:`to_payload` /
    :meth:`from_payload` provide the JSON-safe form for the wire.
    """

    def __init__(self, experiment: str, outcome: CellOutcome) -> None:
        cell = outcome.cell
        self.experiment = experiment
        self.params = cell.params_dict
        self.seed = cell.seed
        self.error_type = outcome.error_type
        self.worker_traceback = outcome.error or ""
        super().__init__(
            f"experiment {experiment!r}: cell {cell.describe()} failed with "
            f"{outcome.error_type}\n--- worker traceback ---\n{self.worker_traceback}"
        )

    def __reduce__(self):
        return (_restore_cell_execution_error, (self.to_payload(),))

    def to_payload(self) -> Dict[str, Any]:
        """A flat dict round-tripping through JSON (params may need ``repr``
        for non-JSON values; the standard metric/sweep types are safe)."""

        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "seed": self.seed,
            "error_type": self.error_type,
            "worker_traceback": self.worker_traceback,
            "message": self.args[0] if self.args else "",
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "CellExecutionError":
        return _restore_cell_execution_error(payload)


def _restore_cell_execution_error(payload: Mapping[str, Any]) -> CellExecutionError:
    """Rebuild a :class:`CellExecutionError` without re-running ``__init__``."""

    error = CellExecutionError.__new__(CellExecutionError)
    RuntimeError.__init__(error, payload.get("message", ""))
    error.experiment = payload.get("experiment", "")
    error.params = dict(payload.get("params") or {})
    error.seed = payload.get("seed", 0)
    error.error_type = payload.get("error_type")
    error.worker_traceback = payload.get("worker_traceback", "")
    return error


@dataclass
class ExperimentResult:
    """All rows produced by an experiment plus aggregation helpers."""

    name: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    executor: str = "serial"
    outcomes: List[CellOutcome] = field(default_factory=list)
    errors: List[CellOutcome] = field(default_factory=list)
    cache_hits: int = 0
    aggregator: Optional[StreamingAggregator] = field(default=None, repr=False)

    def filter(self, **conditions: Any) -> "ExperimentResult":
        """Rows matching all the given column=value conditions."""

        rows = [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in conditions.items())
        ]
        return ExperimentResult(name=self.name, rows=rows, elapsed_seconds=self.elapsed_seconds)

    def column(self, key: str) -> List[Any]:
        return [row[key] for row in self.rows if key in row]

    def aggregate(self, metrics: Optional[Sequence[str]] = None) -> Dict[str, Summary]:
        return aggregate_runs(self.rows, metrics=metrics)

    def summary(self) -> Dict[str, Summary]:
        """Summaries folded while the rows streamed in (no second pass)."""

        if self.aggregator is not None:
            return self.aggregator.summaries()
        aggregator = StreamingAggregator()
        aggregator.update_rows(self.rows)
        return aggregator.summaries()

    def grouped_mean(self, group_key: str, metric: str) -> Dict[Any, float]:
        """Mean of ``metric`` for each value of ``group_key`` (sweep curves)."""

        out: Dict[Any, float] = {}
        for value, rows in group_by(self.rows, group_key).items():
            values = [float(r[metric]) for r in rows if metric in r]
            if values:
                out[value] = sum(values) / len(values)
        return out

    @property
    def cell_seconds(self) -> List[float]:
        """Per-cell wall-clock times, in row order."""

        return [outcome.elapsed_seconds for outcome in self.outcomes]

    def __len__(self) -> int:
        return len(self.rows)


@functools.lru_cache(maxsize=256)
def _source_text(target: Any) -> Optional[str]:
    """``inspect.getsource`` with a cache keyed by the function object.

    ``getsource`` re-reads and re-tokenises the defining file on every call;
    campaign drivers fingerprint the same run functions once per sweep, so
    the memo turns the repeated cost into a dict hit.  Stale entries are
    impossible within a process: a re-defined function is a new object,
    hence a new key.
    """

    try:
        return inspect.getsource(target)
    except (OSError, TypeError):
        return None


def run_fingerprint(run: RunFunction) -> str:
    """A short fingerprint of a run function, used to version journal entries.

    Covers the qualified name, the source text when available, and -- for
    :func:`functools.partial` objects -- the bound arguments, so editing an
    experiment or changing its configuration invalidates its journaled cells.
    """

    parts: List[str] = []
    target = run
    while isinstance(target, functools.partial):
        parts.append(repr(target.args))
        parts.append(repr(sorted(target.keywords.items())))
        target = target.func
    parts.append(f"{getattr(target, '__module__', '')}.{getattr(target, '__qualname__', repr(target))}")
    try:
        source = _source_text(target)
    except TypeError:  # unhashable callable: fall back to the direct read
        try:
            source = inspect.getsource(target)
        except (OSError, TypeError):
            source = None
    if source is not None:
        parts.append(source)
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


def run_experiment(
    name: str,
    run: RunFunction,
    parameters: Optional[Mapping[str, Sequence[Any]]] = None,
    *,
    repetitions: int = 3,
    base_seed: int = 1234,
    executor: ExecutorSpec = None,
    journal: Union[None, str, Path, CampaignJournal] = None,
    sink: Any = None,
    listener: Any = None,
    capture_errors: bool = False,
) -> ExperimentResult:
    """Run ``run(seed=..., **params)`` over the whole parameter grid.

    Parameters
    ----------
    name:
        Experiment identifier (stored in every row).
    run:
        Callable returning a mapping of metric name to value.  Must be
        picklable (a module-level function or :func:`functools.partial` of
        one) to use a process-pool executor.
    parameters:
        Mapping of parameter name to the sequence of values to sweep.
    repetitions / base_seed:
        Seeds are ``base_seed + repetition_index``: reproducible, distinct
        across repetitions, independent of the executor.
    executor:
        ``None`` (use ``REPRO_JOBS``, default serial), ``"serial"``,
        ``"process"``/``"auto"``, an integer job count, ``"distributed"``
        or a ``tcp://host:port`` distributed-scheduler bind address, or an
        :class:`~repro.experiments.executors.Executor` instance.
    journal:
        Optional resume journal (a JSONL file path or a
        :class:`~repro.experiments.journal.CampaignJournal`).  Cells it
        holds for this run function are replayed without executing
        (``cached=True``, counted in ``cache_hits``); every other successful
        cell is appended in submission order as the harness consumes it, so
        a killed sweep re-runs only the cells it had not yet consumed.
    sink:
        Optional :class:`~repro.store.api.RowSink` (or a campaign-store
        directory path) receiving every completed cell as it streams in --
        replayed ones included, so a resumed run still lands a full row
        set.  Flushed when the sweep finishes, even on error.
    listener:
        Optional :class:`repro.telemetry.listener.SweepListener` receiving
        typed cell-lifecycle notifications (on_sweep_start / on_cell_start /
        on_row / on_error / on_sweep_end).  The process-wide telemetry bus
        is always notified as well, so the dashboard observes every sweep.
    capture_errors:
        When false (default) a failing cell raises
        :class:`CellExecutionError` with the failing configuration attached;
        when true the failure is recorded in ``result.errors`` and the sweep
        continues.
    """

    from repro.store.api import coerce_sink, compose_row
    from repro.telemetry import FanoutListener, get_bus
    from repro.telemetry.spans import SpanRecorder

    # Span-gated instrumentation: enabled only when the bus has a live
    # subscriber (a dashboard, a flight recorder) or REPRO_SPANS forces it
    # on, so the per-cell path costs nothing in an unobserved run.
    spans = SpanRecorder.for_bus(get_bus(), experiment=name)
    with spans.span("harness.expand"):
        cells = expand_grid(parameters, repetitions=repetitions, base_seed=base_seed)
    backend = resolve_executor(executor)
    journal = CampaignJournal.coerce(journal)
    row_sink = coerce_sink(sink)
    notify = FanoutListener([get_bus(), listener])
    version = run_fingerprint(run) if (journal is not None or row_sink is not None) else ""

    start = time.perf_counter()
    aggregator = StreamingAggregator()
    result = ExperimentResult(name=name, executor=backend.name, aggregator=aggregator)

    cached: Dict[int, CellOutcome] = {}
    pending: List[Cell] = []
    if journal is not None:
        for cell in cells:
            hit = journal.lookup(cell, version)
            if hit is not None:
                cached[cell.index] = hit
            else:
                pending.append(cell)
    else:
        pending = list(cells)

    live = backend.map(CellFunction(run), pending)
    notify.on_sweep_start(name, len(cells))
    try:
        for cell in cells:
            outcome = cached.get(cell.index)
            if outcome is None:
                notify.on_cell_start(name, cell)
                # "harness.wait": blocked on the executor for the next
                # outcome -- worker-side spans (cell.execute etc.) account
                # for the inside of this wait, so the names never overlap
                # in a phase attribution.
                with spans.span("harness.wait"):
                    outcome = next(live)
            else:
                spans.counter("cache-hit")
            result.outcomes.append(outcome)
            if outcome.cached:
                result.cache_hits += 1
            if outcome.failed:
                if not capture_errors:
                    raise CellExecutionError(name, outcome)
                result.errors.append(outcome)
                notify.on_error(name, cell, outcome)
                continue
            # "harness.emit": compose + aggregate + journal/sink writes +
            # listener fan-out for one finished cell.
            with spans.span("harness.emit"):
                row = compose_row(name, cell, outcome)
                result.rows.append(row)
                aggregator.update(row)
                if journal is not None and not outcome.cached:
                    journal.record(cell, outcome, version)
                if row_sink is not None:
                    row_sink.write(name, cell, outcome, version)
                notify.on_row(name, cell, row, outcome)
    finally:
        # Release the executor deterministically: generator-based backends
        # hold real resources at their final yield (a bound TCP port and
        # forked workers for the distributed executor, a process pool for
        # the pool executor), and an abandoned suspended generator only
        # tears them down whenever reference-counting happens to collect it
        # -- too late for the next campaign re-binding the same port, and
        # never while a CellExecutionError traceback keeps the frame alive.
        close = getattr(live, "close", None)
        if close is not None:
            close()
        if row_sink is not None:
            row_sink.flush()
        spans.flush()
        result.elapsed_seconds = time.perf_counter() - start
        notify.on_sweep_end(name, result)

    return result
