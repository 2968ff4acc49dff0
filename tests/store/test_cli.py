"""python -m repro.store: exit codes, re-export bit-identity, validation."""

from __future__ import annotations

from repro.experiments.grid import CellOutcome, expand_grid
from repro.experiments.journal import CampaignJournal
from repro.store.cli import main
from repro.store.columnar import CampaignStore


def seed_store(root, campaigns=("serial", "rerun")):
    from repro.scenarios.composer import run_scenario
    from repro.scenarios.registry import get

    spec = get("fig2.bicriteria")
    for campaign in campaigns:
        sink = CampaignStore(root, campaign=campaign, fmt="jsonl")
        run_scenario(spec, smoke=True, sink=sink)
    return CampaignStore(root)


class TestInfo:
    def test_empty_store(self, tmp_path, capsys):
        assert main(["info", "--store", str(tmp_path / "empty")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_populated_store(self, tmp_path, capsys):
        seed_store(tmp_path / "s")
        assert main(["info", "--store", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "4 row(s)" in out
        assert "campaign serial" in out and "campaign rerun" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        seed_store(tmp_path / "s", campaigns=("only",))
        assert main(["info", "--store", str(tmp_path / "s"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.store/1"
        assert len(payload["partitions"]) == 1


class TestQuery:
    def test_list_needs_no_store(self, capsys):
        assert main(["query", "--list"]) == 0
        out = capsys.readouterr().out
        assert "metric-summary" in out and "compare" in out

    def test_named_query_runs(self, tmp_path, capsys):
        seed_store(tmp_path / "s")
        assert main(["query", "metric-summary", "--store", str(tmp_path / "s"),
                     "--param", "metric=cmax_ratio"]) == 0
        assert "serial" in capsys.readouterr().out

    def test_bad_query_and_params_exit_2(self, tmp_path, capsys):
        seed_store(tmp_path / "s", campaigns=("only",))
        assert main(["query", "nope", "--store", str(tmp_path / "s")]) == 2
        assert main(["query", "metric-summary", "--store", str(tmp_path / "s")]) == 2
        assert main(["query", "rows", "--store", str(tmp_path / "s"),
                     "--param", "oops"]) == 2
        capsys.readouterr()

    def test_rows_reexport_is_bit_identical_to_direct_csv(self, tmp_path, capsys):
        from repro.experiments.reporting import to_csv
        from repro.scenarios.composer import run_scenario
        from repro.scenarios.registry import get

        store = CampaignStore(tmp_path / "s", campaign="serial", fmt="jsonl")
        result = run_scenario(get("fig2.bicriteria"), smoke=True, sink=store)
        direct = tmp_path / "direct.csv"
        direct.write_text(to_csv(result.rows), encoding="utf-8")
        assert main(["query", "rows", "--store", str(tmp_path / "s"),
                     "--out", str(tmp_path / "reexport.csv")]) == 0
        capsys.readouterr()
        assert (tmp_path / "reexport.csv").read_bytes() == direct.read_bytes()


def two_campaign_store(root, values=(("inproc", 1.0), ("serial", 2.0))):
    """One shared cell per campaign, carrying metric ``m``."""

    for campaign, value in values:
        store = CampaignStore(root, campaign=campaign, fmt="jsonl")
        store.append_row(
            {"experiment": "e", "seed": 1, "m": value},
            scenario="sc", key="shared-cell-key",
        )
        store.flush()
    return root


class TestCompare:
    def test_identical_campaigns_exit_0(self, tmp_path, capsys):
        seed_store(tmp_path / "s")
        assert main(["compare", "--store", str(tmp_path / "s"),
                     "--metric", "cmax_ratio"]) == 0
        assert "0 differing" in capsys.readouterr().out

    def test_differing_campaigns_exit_1(self, tmp_path, capsys):
        root = two_campaign_store(tmp_path / "s", (("a", 1.0), ("b", 2.0)))
        assert main(["compare", "--store", str(root), "--metric", "m",
                     "--campaign-a", "a", "--campaign-b", "b"]) == 1
        assert "1 differing" in capsys.readouterr().out

    def test_ambiguous_campaigns_exit_2(self, tmp_path, capsys):
        seed_store(tmp_path / "s", campaigns=("a", "b", "c"))
        assert main(["compare", "--store", str(tmp_path / "s"),
                     "--metric", "cmax_ratio"]) == 2
        assert "--campaign-a" in capsys.readouterr().err

    def test_one_named_side_keeps_its_place(self, tmp_path, capsys):
        import json

        root = two_campaign_store(tmp_path / "s")
        for flag, campaign in (("--campaign-a", "serial"), ("--campaign-b", "inproc")):
            out = tmp_path / f"{flag}.jsonl"
            assert main(["compare", "--store", str(root), "--metric", "m",
                         flag, campaign, "--out", str(out)]) == 1
            (row,) = [json.loads(line) for line in out.read_text().splitlines()]
            assert (row["a_value"], row["b_value"], row["diff"]) == (2.0, 1.0, -1.0)
        capsys.readouterr()

    def test_unknown_campaign_exits_2(self, tmp_path, capsys):
        root = two_campaign_store(tmp_path / "s")
        assert main(["compare", "--store", str(root), "--metric", "m",
                     "--campaign-b", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "'nosuch'" in err and "inproc" in err and "serial" in err

    def test_unknown_metric_exits_2(self, tmp_path, capsys):
        seed_store(tmp_path / "s")
        assert main(["compare", "--store", str(tmp_path / "s"),
                     "--metric", "nosuch_metric"]) == 2
        assert "nothing was compared" in capsys.readouterr().err


class TestValidate:
    def test_clean_store_exits_0(self, tmp_path, capsys):
        seed_store(tmp_path / "s", campaigns=("only",))
        assert main(["validate", "--store", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "bicriteria-cmax-within-4rho" in out
        assert "FAIL" not in out

    def test_violating_store_exits_1(self, tmp_path, capsys):
        store = seed_store(tmp_path / "s", campaigns=("only",))
        store.append_row({"experiment": "bad", "seed": 0, "cmax_ratio": 99.0},
                         scenario="bad")
        store.flush()
        assert main(["validate", "--store", str(tmp_path / "s")]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        import json

        seed_store(tmp_path / "s", campaigns=("only",))
        assert main(["validate", "--store", str(tmp_path / "s"), "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.rindex("]") + 1])
        assert any(entry["rule"] == "elapsed-nonnegative" for entry in payload)


class TestIngest:
    def test_journal_ingest_via_cli(self, tmp_path, capsys):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        for cell in expand_grid({"x": [1, 2]}, repetitions=1):
            journal.record(
                cell, CellOutcome(cell=cell, metrics={"v": 1.0}, elapsed_seconds=0.1),
                "v1",
            )
        assert main(["ingest", str(tmp_path / "j.jsonl"),
                     "--store", str(tmp_path / "s"), "--campaign", "legacy",
                     "--scenario", "old-sweep"]) == 0
        assert "ingested 2 row(s)" in capsys.readouterr().out
        store = CampaignStore(tmp_path / "s")
        assert store.campaigns() == ["legacy"]
        assert store.scenarios() == ["old-sweep"]

    def test_missing_source_exits_2(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "missing.jsonl"),
                     "--store", str(tmp_path / "s"), "--input-format", "csv"]) == 2
        assert "cannot read" in capsys.readouterr().err
