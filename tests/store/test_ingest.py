"""Ingest: journal -> store equivalence (crash-truncated included), CSV import."""

from __future__ import annotations

from repro.experiments.grid import CellOutcome, expand_grid
from repro.experiments.journal import CampaignJournal, load_journal_entries
from repro.experiments.reporting import to_csv
from repro.store.columnar import CampaignStore
from repro.store.ingest import ingest, ingest_csv, ingest_journal


def outcome_for(cell, value):
    return CellOutcome(cell=cell, metrics={"v": value}, elapsed_seconds=0.125)


def write_journal(path, cells, version="v1"):
    journal = CampaignJournal(path)
    for index, cell in enumerate(cells):
        journal.record(cell, outcome_for(cell, float(index)), version)
    return journal


class TestJournalIngest:
    def test_equivalent_to_live_journal_replay(self, tmp_path):
        cells = expand_grid({"x": [1, 2]}, repetitions=2, base_seed=11)
        journal = write_journal(tmp_path / "j.jsonl", cells)
        store = CampaignStore(tmp_path / "store", campaign="c")
        appended = ingest_journal(tmp_path / "j.jsonl", store, scenario="sweep")
        store.flush()
        assert appended == 4
        # Same dedup keys, same metrics, same elapsed as the journal holds.
        entries = journal.entries()
        records = CampaignStore(tmp_path / "store").records()
        assert {r["key"] for r in records} == set(entries)
        for record in records:
            entry = entries[record["key"]]
            assert record["elapsed_seconds"] == entry["elapsed_seconds"]
            assert record["replayed"] is True
            assert record["v"] == entry["metrics"]["v"]
            assert record["seed"] == entry["seed"]

    def test_crash_truncated_journal_recovers_complete_entries(self, tmp_path):
        cells = expand_grid({"x": [1, 2, 3]}, repetitions=1)
        path = tmp_path / "j.jsonl"
        write_journal(path, cells)
        # A campaign killed mid-append leaves a half-written trailing line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "half-written", "metrics": {"v":')
        assert len(load_journal_entries(path)) == 3
        store = CampaignStore(tmp_path / "store")
        assert ingest(path, store) == 3
        store.flush()
        assert len(store) == 3

    def test_reingest_is_idempotent(self, tmp_path):
        cells = expand_grid({"x": [1, 2]}, repetitions=1)
        path = tmp_path / "j.jsonl"
        write_journal(path, cells)
        store = CampaignStore(tmp_path / "store")
        assert ingest_journal(path, store) == 2
        assert ingest_journal(path, store) == 0  # journal keys dedup the rerun
        store.flush()
        assert len(store) == 2
        assert store.stats.duplicates == 2

    def test_missing_journal_is_empty_not_an_error(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        assert ingest_journal(tmp_path / "missing.jsonl", store) == 0


class TestCsvIngest:
    def test_round_trips_typed_values(self, tmp_path):
        rows = [
            {"experiment": "e", "seed": 1, "n": 10, "ratio": 1.5, "ok": True, "name": "lpt"},
            {"experiment": "e", "seed": 2, "n": 20, "ratio": 2.5, "ok": False, "name": "wspt"},
        ]
        path = tmp_path / "rows.csv"
        path.write_text(to_csv(rows), encoding="utf-8")
        store = CampaignStore(tmp_path / "store")
        assert ingest_csv(path, store) == 2
        store.flush()
        assert CampaignStore(tmp_path / "store").rows() == rows

    def test_reingest_is_idempotent(self, tmp_path):
        rows = [{"experiment": "e", "seed": 1, "v": 3}]
        path = tmp_path / "rows.csv"
        path.write_text(to_csv(rows), encoding="utf-8")
        store = CampaignStore(tmp_path / "store")
        assert ingest(path, store) == 1
        assert ingest(path, store) == 0  # content-derived keys dedup the rerun
        store.flush()
        assert len(store) == 1

    def test_suffix_dispatch_and_bad_format(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        try:
            ingest(tmp_path / "x.csv", store, fmt="xml")
        except ValueError as error:
            assert "xml" in str(error)
        else:
            raise AssertionError("expected ValueError for unknown format")
