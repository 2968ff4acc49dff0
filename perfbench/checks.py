"""Correctness of every pass: pinned digests, determinism and paper bounds.

A cell fails when it raised, when a row of its sweep breaks one of the
paper's bounds, or when its sweep's rows differ from the reference:

* on seed 0 (the registered seeds) the reference is the sweep's
  rows digest pinned in ``digests.json`` (regenerate with
  ``python3 perfbench/pin.py`` after a deliberate behaviour change);
* on any other seed (held out) it is the first pass of the same run, so
  every pass must repeat the first one bit for bit.

A digest mismatch fails every cell of the sweep.  On ``campaign`` the rows
read back from the store must equal the rows the sweep produced, and every
``validate_store`` rule must hold.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Ratios are measured against lower bounds, so none can drop below 1.
RATIO_FLOOR = 1.0
FLOOR_METRICS = ("makespan_ratio", "weighted_completion_ratio", "cmax_ratio", "wici_ratio")
#: Bi-criteria doubling batches: both criteria within 4 * rho, rho = 2 for
#: the greedy moldable inner procedure (paper, section 4.4).
BICRITERIA_BOUND = 8.0
CEILING_METRICS = ("cmax_ratio", "wici_ratio")
TOLERANCE = 1e-9


def load_pinned() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def digest(rows: List[Dict[str, Any]]) -> str:
    """SHA-256 over a sweep's rows (the formula of ``repro.scenarios.rows_digest``,
    kept here so the reference does not depend on the code under test)."""

    blob = json.dumps(list(rows), sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def bound_violations(row: Dict[str, Any]) -> List[str]:
    """The paper bounds ``row`` breaks, as readable messages."""

    broken = []
    for metric in FLOOR_METRICS:
        value = row.get(metric)
        if isinstance(value, (int, float)) and value < RATIO_FLOOR - TOLERANCE:
            broken.append(f"{metric}={value!r} < {RATIO_FLOOR}")
    for metric in CEILING_METRICS:
        value = row.get(metric)
        if isinstance(value, (int, float)) and value > BICRITERIA_BOUND + TOLERANCE:
            broken.append(f"{metric}={value!r} > {BICRITERIA_BOUND}")
    return broken


class Checker:
    """Counts attempted and failed cells over the passes of one run."""

    def __init__(self, pinned: Optional[Dict[str, str]]) -> None:
        #: Scenario -> pinned digest; ``None`` on a held-out seed.
        self.pinned = pinned
        self.first: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, result: Any) -> None:
        """Check one pass (a :class:`perfbench.workloads.Pass`)."""

        store_rows: Dict[str, List[Dict[str, Any]]] = {}
        for row in result.store_rows:
            store_rows.setdefault(row.get("experiment"), []).append(row)
        broken_store = [rule.describe() for rule in result.validation if not rule.ok]
        for message in broken_store:
            self._problem(f"validate_store: {message}")

        for sweep in result.sweeps:
            outcomes = sweep.result.outcomes
            every = {outcome.cell.index for outcome in outcomes}
            failed: Set[int] = set()
            for outcome in sweep.result.errors:
                failed.add(outcome.cell.index)
                self._problem(f"{sweep.scenario}: cell {outcome.cell.index} raised {outcome.error_type}")
            completed = [outcome for outcome in outcomes if not outcome.failed]
            for outcome, row in zip(completed, sweep.result.rows):
                broken = bound_violations(row)
                if broken:
                    failed.add(outcome.cell.index)
                    self._problem(f"{sweep.scenario}: cell {outcome.cell.index} breaks {broken}")
            rows_digest = digest(sweep.result.rows)
            if self.pinned is not None:
                expected = self.pinned.get(sweep.scenario)
            else:
                expected = self.first.setdefault(sweep.scenario, rows_digest)
            if rows_digest != expected:
                failed = every
                self._problem(
                    f"{sweep.scenario}: rows digest {rows_digest[:12]} != expected {str(expected)[:12]}"
                )
            if result.validation:  # a campaign pass: the store must hold these rows
                if digest(store_rows.get(sweep.scenario, [])) != rows_digest:
                    failed = every
                    self._problem(f"{sweep.scenario}: rows read back from the store differ")
                if broken_store:
                    failed = every
            self.attempted += len(outcomes)
            self.failed += len(failed)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
