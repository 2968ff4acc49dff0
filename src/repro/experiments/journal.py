"""Resumable sweep journal: completed cells survive a killed sweep.

The journal is an append-only JSONL file: one line per completed cell,
keyed by :func:`repro.experiments.grid.cell_key` over the cell's
configuration, seed and a fingerprint of the run function
(:func:`repro.experiments.harness.run_fingerprint`), so editing the
experiment invalidates its entries automatically.  The fingerprint does
*not* see code the function calls into or module-level constants it reads
-- after changing those, start a fresh journal file.

:func:`repro.experiments.harness.run_experiment` owns it (``journal=``):
journaled cells of a restarted sweep are replayed without re-execution and
only the incomplete ones reach the executor, whichever executor that is.
Appends are flushed line-by-line; a line truncated by a crash mid-write is
skipped on load (everything before it is still recovered).

Only metrics that survive a JSON round-trip unchanged are journaled
(:func:`encode_replayable`); cells returning rich Python objects are
re-executed on resume (correct, just not accelerated).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.experiments.grid import Cell, CellOutcome, cell_key

#: The ``experiment`` label under which journal keys are derived.  The run
#: function fingerprint (folded into the key's ``version``) already pins the
#: sweep's identity, so a constant label keeps keys stable across the
#: harness' varying experiment names.
JOURNAL_EXPERIMENT = "campaign"


def encode_replayable(outcome: CellOutcome) -> Optional[Dict[str, Any]]:
    """The JSON-safe replay fields of a successful outcome, or ``None``.

    The single definition of "replayable" shared by the journal and the
    campaign store: only metrics that survive a JSON round-trip *unchanged*
    may be persisted (tuples and non-string dict keys do not), so replayed
    rows are bit-identical to freshly computed ones.  Failed outcomes and
    rich-object metrics return ``None`` -- the cell is simply recomputed
    next time (correct, just not accelerated).
    """

    if outcome.failed or outcome.metrics is None:
        return None
    try:
        if json.loads(json.dumps(outcome.metrics)) != outcome.metrics:
            return None
    except (TypeError, ValueError):
        return None
    return {"metrics": outcome.metrics, "elapsed_seconds": outcome.elapsed_seconds}


def decode_replayed(cell: Cell, payload: Mapping[str, Any]) -> CellOutcome:
    """Rebuild the replayed outcome of a persisted entry (``cached=True``)."""

    return CellOutcome(
        cell=cell,
        metrics=payload.get("metrics", {}),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        cached=True,
    )


def journal_key(cell: Cell, version: str) -> str:
    return cell_key(JOURNAL_EXPERIMENT, cell, version)


def load_journal_entries(path: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """All complete entries of a journal file, keyed by cell key.

    Tolerates a missing file and a trailing line truncated by a crash
    mid-append (everything before it is still recovered).  Shared by
    :class:`CampaignJournal` and :func:`repro.store.ingest.ingest_journal`.
    """

    loaded: Dict[str, Dict[str, Any]] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return loaded
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue  # a line truncated by a crash mid-append
        if isinstance(entry, dict) and isinstance(entry.get("key"), str):
            loaded[entry["key"]] = entry
    return loaded


class CampaignJournal:
    """An on-disk JSONL record of completed sweep cells."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._entries: Optional[Dict[str, Dict[str, Any]]] = None

    @classmethod
    def coerce(
        cls, journal: Union[None, str, Path, "CampaignJournal"]
    ) -> Optional["CampaignJournal"]:
        if journal is None or isinstance(journal, CampaignJournal):
            return journal
        return cls(journal)

    def __repr__(self) -> str:
        return f"CampaignJournal({str(self.path)!r})"

    # -- reading ------------------------------------------------------------

    def entries(self) -> Dict[str, Dict[str, Any]]:
        """All journaled entries, keyed by cell key (loaded once, then live)."""

        if self._entries is None:
            self._entries = load_journal_entries(self.path)
        return self._entries

    def __len__(self) -> int:
        return len(self.entries())

    def lookup(self, cell: Cell, version: str) -> Optional[CellOutcome]:
        """The journaled outcome of ``cell``, or ``None`` when incomplete."""

        entry = self.entries().get(journal_key(cell, version))
        if entry is None:
            return None
        return decode_replayed(cell, entry)

    # -- writing ------------------------------------------------------------

    def record(self, cell: Cell, outcome: CellOutcome, version: str) -> bool:
        """Append a successful outcome; returns False when not journalable."""

        replayable = encode_replayable(outcome)
        if replayable is None:
            return False
        entry = {
            "key": journal_key(cell, version),
            "params": cell.params_dict,
            "seed": cell.seed,
            "repetition": cell.repetition,
            **replayable,
        }
        try:
            line = json.dumps(entry, sort_keys=True)
        except (TypeError, ValueError):
            return False  # non-JSON cell parameters
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
        if self._entries is not None:
            self._entries[entry["key"]] = entry
        return True
