"""Resume journal tests: keys, replay, corruption tolerance, versioning."""

from __future__ import annotations

import json

from repro.experiments.grid import CellOutcome, expand_grid
from repro.experiments.harness import run_experiment, run_fingerprint
from repro.experiments.journal import CampaignJournal, journal_key

#: One journal line exactly as ``CampaignJournal.record`` has always written
#: it: sorted keys, default separators, ``journal_key(cell, "v1")`` of the
#: cell ``x=7, seed=1234, repetition=0``.  Journals already on disk must
#: keep resuming, so neither the format nor the key may drift.
PUBLISHED_LINE = (
    '{"elapsed_seconds": 0.125, '
    '"key": "c374b5b527d7505f1a901a567a0b49ab6834bce35b2a7234b934193d87f520d9", '
    '"metrics": {"label": "a", "v": 2.5}, "params": {"x": 7}, '
    '"repetition": 0, "seed": 1234}\n'
)


def outcome_for(cell, value):
    return CellOutcome(cell=cell, metrics={"v": value}, elapsed_seconds=0.1)


class TestJournal:
    def test_record_and_lookup_round_trip(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        cells = expand_grid({"x": [1, 2]}, repetitions=2)
        for index, cell in enumerate(cells):
            assert journal.record(cell, outcome_for(cell, float(index)), "v1")
        fresh = CampaignJournal(tmp_path / "j.jsonl")
        assert len(fresh) == 4
        for index, cell in enumerate(cells):
            replayed = fresh.lookup(cell, "v1")
            assert replayed is not None
            assert replayed.cached is True
            assert replayed.metrics == {"v": float(index)}

    def test_version_mismatch_is_a_miss(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        (cell,) = expand_grid({}, repetitions=1)
        journal.record(cell, outcome_for(cell, 1.0), "v1")
        assert journal.lookup(cell, "v1") is not None
        assert CampaignJournal(tmp_path / "j.jsonl").lookup(cell, "v2") is None

    def test_failed_and_rich_outcomes_are_not_journaled(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        (cell,) = expand_grid({}, repetitions=1)
        failed = CellOutcome(cell=cell, error="boom", error_type="ValueError")
        assert not journal.record(cell, failed, "v1")
        rich = CellOutcome(cell=cell, metrics={"payload": {("t", 1)}})
        assert not journal.record(cell, rich, "v1")
        assert not (tmp_path / "j.jsonl").exists()

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        cells = expand_grid({"x": [1, 2]}, repetitions=1)
        for cell in cells:
            journal.record(cell, outcome_for(cell, 1.0), "v1")
        # Simulate a campaign killed mid-append: a half-written final line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "abcd", "metrics": {"v":')
        recovered = CampaignJournal(path)
        assert len(recovered) == 2
        assert recovered.lookup(cells[0], "v1") is not None

    def test_key_covers_params_seed_and_version(self):
        cell_a, cell_b = expand_grid({"n": [1, 2]}, repetitions=1)
        assert journal_key(cell_a, "v") != journal_key(cell_b, "v")
        assert journal_key(cell_a, "v") != journal_key(cell_a, "w")

    def test_entries_are_plain_json_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        (cell,) = expand_grid({"x": [7]}, repetitions=1)
        journal.record(cell, outcome_for(cell, 2.5), "v1")
        entry = json.loads(path.read_text().splitlines()[0])
        assert entry["params"] == {"x": 7}
        assert entry["seed"] == cell.seed
        assert entry["metrics"] == {"v": 2.5}


class TestPublishedFormat:
    def test_record_writes_the_published_line_byte_for_byte(self, tmp_path):
        path = tmp_path / "j.jsonl"
        (cell,) = expand_grid({"x": [7]}, repetitions=1)
        outcome = CellOutcome(cell=cell, metrics={"v": 2.5, "label": "a"},
                              elapsed_seconds=0.125)
        assert CampaignJournal(path).record(cell, outcome, "v1")
        assert path.read_text(encoding="utf-8") == PUBLISHED_LINE

    def test_a_published_line_replays(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(PUBLISHED_LINE, encoding="utf-8")
        (cell,) = expand_grid({"x": [7]}, repetitions=1)
        replayed = CampaignJournal(path).lookup(cell, "v1")
        assert replayed is not None and replayed.cached is True
        assert replayed.metrics == {"label": "a", "v": 2.5}
        assert replayed.elapsed_seconds == 0.125


def never_called(seed, x):
    raise AssertionError("a journaled cell must not execute")


class TestHarnessReplaysPublishedLines:
    def test_run_experiment_replays_a_line_in_the_published_format(self, tmp_path):
        # The same line, keyed for this run function's fingerprint.
        (cell,) = expand_grid({"x": [7]}, repetitions=1)
        key = journal_key(cell, run_fingerprint(never_called))
        path = tmp_path / "j.jsonl"
        path.write_text(
            PUBLISHED_LINE.replace(journal_key(cell, "v1"), key), encoding="utf-8"
        )
        result = run_experiment("published", never_called, {"x": [7]},
                                repetitions=1, journal=path)
        assert result.cache_hits == 1
        assert result.rows == [
            {"experiment": "published", "seed": 1234, "x": 7, "label": "a", "v": 2.5}
        ]
