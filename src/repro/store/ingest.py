"""Ingest legacy result files into a campaign store.

Two other encodings of sweep rows exist outside the store:

* **resume journals** -- the append-only JSONL files of the harness
  (:mod:`repro.experiments.journal`).  Ingest reuses the journal's own
  crash-tolerant loader, so a journal truncated mid-append recovers every
  complete entry, and keeps each entry's dedup key, so re-ingesting (or
  resuming the sweep afterwards) cannot duplicate rows.
* **CSV exports** -- ``reporting.to_csv`` output.  Values are re-typed
  (int, then float, then bool, else string); the dedup key is derived from
  the row content, so re-ingesting the same file is a no-op.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.experiments.journal import JOURNAL_EXPERIMENT, load_journal_entries
from repro.store.columnar import CampaignStore


def _coerce_csv_value(text: str) -> Any:
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    if text in ("True", "False"):
        return text == "True"
    return text


def ingest_journal(
    path: Union[str, Path],
    store: CampaignStore,
    *,
    scenario: Optional[str] = None,
    campaign: Optional[str] = None,
) -> int:
    """Land every complete entry of a resume journal; returns rows appended.

    ``scenario`` labels the rows (defaults to the journal's constant
    ``campaign`` experiment label); the journaled cell key is kept as the
    store dedup key, so ingest is idempotent and consistent with a live
    sweep writing through the same keying.
    """

    label = scenario or JOURNAL_EXPERIMENT
    appended = 0
    for key, entry in load_journal_entries(Path(path)).items():
        params = entry.get("params") or {}
        metrics = entry.get("metrics") or {}
        seed = entry.get("seed")
        row: Dict[str, Any] = {"experiment": label, "seed": seed}
        row.update(params)
        row.update(metrics)
        if store.append_row(
            row,
            scenario=label,
            key=key,
            campaign=campaign,
            seed=seed,
            repetition=entry.get("repetition"),
            elapsed_seconds=float(entry.get("elapsed_seconds", 0.0)),
            replayed=True,
        ):
            appended += 1
    return appended


def ingest_csv(
    path: Union[str, Path],
    store: CampaignStore,
    *,
    scenario: Optional[str] = None,
    campaign: Optional[str] = None,
) -> int:
    """Land a CSV export; returns rows appended (duplicates are dropped)."""

    text = Path(path).read_text(encoding="utf-8")
    appended = 0
    with io.StringIO(text) as handle:
        for parsed in csv.DictReader(handle):
            row = {
                column: _coerce_csv_value(value)
                for column, value in parsed.items()
                if column is not None and value is not None
            }
            label = scenario or str(row.get("experiment") or Path(path).stem)
            seed = row.get("seed")
            if store.append_row(
                row,
                scenario=label,
                campaign=campaign,
                seed=seed if isinstance(seed, int) else None,
                replayed=True,
            ):
                appended += 1
    return appended


def ingest(
    path: Union[str, Path],
    store: CampaignStore,
    *,
    fmt: Optional[str] = None,
    scenario: Optional[str] = None,
    campaign: Optional[str] = None,
) -> int:
    """Ingest a legacy file, dispatching on ``fmt`` or the file suffix."""

    resolved = fmt
    if resolved is None:
        suffix = Path(path).suffix.lower()
        resolved = {"csv": "csv", ".csv": "csv", ".jsonl": "journal",
                    ".ndjson": "journal"}.get(suffix, "journal")
    if resolved == "csv":
        return ingest_csv(path, store, scenario=scenario, campaign=campaign)
    if resolved == "journal":
        return ingest_journal(path, store, scenario=scenario, campaign=campaign)
    raise ValueError(f"unknown ingest format {resolved!r}; expected 'journal' or 'csv'")
