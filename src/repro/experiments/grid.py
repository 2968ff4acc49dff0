"""Grid expansion and cell execution: the first two stages of a sweep.

An experiment is a cross product of parameter values times a number of seeded
repetitions.  This module turns that declaration into an explicit, ordered
list of :class:`Cell` objects (grid expansion), and provides the function
object that executes one cell and captures its metrics, timing and errors
(:class:`CellFunction`).  The third stage -- aggregation of the streamed rows
-- lives in :mod:`repro.metrics.aggregate`; the execution backends live in
:mod:`repro.experiments.executors`.

Keeping the stages separate is what makes the sweep engine parallel: cells
are self-contained, picklable work units with deterministic per-cell seeds,
so any executor that preserves submission order reproduces the serial rows
bit for bit.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

RunFunction = Callable[..., Mapping[str, Any]]


@dataclass(frozen=True)
class Cell:
    """One (configuration, seed) point of a sweep.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so the
    cell is immutable and cheap to pickle; ``params_dict`` rebuilds the
    mapping passed to the run function.
    """

    index: int
    repetition: int
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"({inner}{', ' if inner else ''}seed={self.seed})"


@dataclass
class CellOutcome:
    """What came back from running one cell: metrics or an error, plus timing."""

    cell: Cell
    metrics: Optional[Dict[str, Any]] = None
    elapsed_seconds: float = 0.0
    error: Optional[str] = None       # formatted traceback from the worker
    error_type: Optional[str] = None  # exception class name
    cached: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None


def expand_grid(
    parameters: Optional[Mapping[str, Sequence[Any]]] = None,
    *,
    repetitions: int = 1,
    base_seed: int = 1234,
) -> List[Cell]:
    """Expand a parameter grid into an ordered list of cells.

    Parameter names are iterated in sorted order, values in the given order,
    repetitions innermost; the per-cell seed is ``base_seed + repetition`` --
    the same enumeration the historical serial runner used, so results are
    reproducible across executors and releases.
    """

    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    parameters = parameters or {}
    keys = sorted(parameters)
    combos = itertools.product(*(parameters[k] for k in keys)) if keys else [()]
    cells: List[Cell] = []
    index = 0
    for combo in combos:
        params = tuple(zip(keys, combo))
        for repetition in range(repetitions):
            cells.append(
                Cell(
                    index=index,
                    repetition=repetition,
                    seed=base_seed + repetition,
                    params=params,
                )
            )
            index += 1
    return cells


class CellFunction:
    """Picklable wrapper executing one cell: ``run(seed=..., **params)``.

    Exceptions raised by the run function are captured as a formatted
    traceback in the outcome instead of propagating, so one bad cell cannot
    take down a worker pool; the harness decides whether to re-raise.
    """

    def __init__(self, run: RunFunction) -> None:
        self.run = run

    def __call__(self, cell: Cell) -> CellOutcome:
        start = time.perf_counter()
        try:
            metrics = dict(self.run(seed=cell.seed, **cell.params_dict))
        except Exception as error:
            return CellOutcome(
                cell=cell,
                elapsed_seconds=time.perf_counter() - start,
                error=traceback.format_exc(),
                error_type=type(error).__name__,
            )
        return CellOutcome(
            cell=cell,
            metrics=metrics,
            elapsed_seconds=time.perf_counter() - start,
        )


class CellKeyer:
    """Precomputed :func:`cell_key` builder for one (experiment, version).

    ``cell_key`` serialises the same experiment name and version string for
    every cell of a sweep; over a journaled campaign that is two JSON dumps
    and a dict build per cell lookup *and* per append.  The keyer freezes the
    constant head/tail of the JSON blob once and caches the params segment
    per distinct configuration (repetitions share it), so the per-cell work
    drops to one string concatenation and the SHA-256.

    JSON serialisation is compositional: ``json.dumps(payload, sort_keys=
    True, default=repr)`` of the payload dict equals the literal key/value
    skeleton (keys are already in sorted order: experiment < params <
    repetition < seed < version) with each value's own ``json.dumps`` -- the
    default ``(', ', ': ')`` separators -- spliced in.  The blobs are
    therefore byte-identical to the reference implementation.
    """

    __slots__ = ("_head", "_tail", "_params_json")

    def __init__(self, experiment: str, version: str = "") -> None:
        self._head = (
            '{"experiment": '
            + json.dumps(experiment, sort_keys=True, default=repr)
            + ', "params": '
        )
        self._tail = (
            ', "version": ' + json.dumps(version, sort_keys=True, default=repr) + "}"
        )
        self._params_json: Dict[Tuple[Tuple[str, Any], ...], str] = {}

    def blob(self, cell: Cell) -> str:
        """The exact JSON text hashed for ``cell`` (exposed for tests)."""

        try:
            params_json = self._params_json.get(cell.params)
        except TypeError:  # unhashable parameter value: skip the memo
            params_json = None
        else:
            if params_json is None:
                params_json = json.dumps(
                    [[k, repr(v)] for k, v in cell.params], sort_keys=True, default=repr
                )
                self._params_json[cell.params] = params_json
        if params_json is None:
            params_json = json.dumps(
                [[k, repr(v)] for k, v in cell.params], sort_keys=True, default=repr
            )
        repetition = json.dumps(cell.repetition, sort_keys=True, default=repr)
        seed = json.dumps(cell.seed, sort_keys=True, default=repr)
        return (
            f'{self._head}{params_json}, "repetition": {repetition}, '
            f'"seed": {seed}{self._tail}'
        )

    def key(self, cell: Cell) -> str:
        return hashlib.sha256(self.blob(cell).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=128)
def keyer_for(experiment: str, version: str = "") -> CellKeyer:
    """The shared :class:`CellKeyer` of one (experiment, version) pair.

    Both key paths -- the resume journal and the campaign store -- funnel
    through :func:`cell_key`, so memoising the keyer here gives all
    of them the once-per-sweep precomputation without signature changes.
    """

    return CellKeyer(experiment, version)


def cell_key(experiment: str, cell: Cell, version: str = "") -> str:
    """Stable hash identifying one cell of one experiment.

    The key covers the experiment name, the configuration, the seed and a
    free-form ``version`` string (typically a fingerprint of the run
    function) so stale journaled results are not replayed across code
    changes.  It keys the resume journal (:mod:`repro.experiments.journal`)
    and deduplicates the campaign store.
    """

    return keyer_for(experiment, version).key(cell)
