"""Unit tests of the repro.bench subsystem (registry, runner, comparator, CLI)."""

import json

import pytest

from repro.bench.cases import REGISTRY, BenchCase, CaseOutcome, get_cases
from repro.bench.compare import compare_reports
from repro.bench.runner import (
    SCHEMA,
    load_report,
    payload_digest,
    run_benchmarks,
    time_case,
    write_report,
)
from repro.bench.__main__ import main as bench_main


def _toy_case(name="toy", events=1000, payload="payload"):
    return BenchCase(
        name=name,
        description="synthetic case for unit tests",
        run=lambda scale=1: CaseOutcome(events=events * scale, cells=7, payload=payload),
        params={"quick": {"scale": 1}, "full": {"scale": 10}},
    )


class TestRegistry:
    def test_builtin_cases_registered(self):
        for expected in (
            "kernel.churn",
            "cluster.figure2",
            "cluster.online",
            "grid.ciment",
            "dlt.multiround",
        ):
            assert expected in REGISTRY
        for case in REGISTRY.values():
            assert set(case.params) == {"quick", "full"}

    def test_get_cases_unknown_name(self):
        with pytest.raises(KeyError, match="unknown bench case"):
            get_cases(["no-such-case"])

    def test_unknown_tier_rejected(self):
        with pytest.raises(KeyError, match="no 'hourly' tier"):
            _toy_case().run_tier("hourly")


class TestRunner:
    def test_time_case_medians_and_rates(self):
        result = time_case(_toy_case(), "quick", repeats=3, warmup=0)
        assert result.case == "toy"
        assert result.tier == "quick"
        assert len(result.samples) == 3
        assert result.wall_seconds == sorted(result.samples)[1]
        assert result.events == 1000
        assert result.events_per_sec == pytest.approx(1000 / result.wall_seconds)
        assert result.cells_per_sec == pytest.approx(7 / result.wall_seconds)
        assert result.digest == payload_digest("payload")

    def test_phase_breakdown_captured_from_spans(self):
        # A case that emits spans on the (swapped-in) default bus during its
        # reference run gets a per-phase timing breakdown in the result.
        from repro.telemetry import SpanRecorder, get_bus

        def run():
            spans = SpanRecorder.for_bus(get_bus())
            with spans.span("harness.wait"):
                pass
            spans.record("cell.execute", 0.25)
            spans.record("cell.execute", 0.75)
            return CaseOutcome(payload="payload")

        case = BenchCase(
            name="spanny", description="emits spans",
            run=run, params={"quick": {}},
        )
        result = time_case(case, "quick", repeats=1, warmup=0)
        assert result.phases["cell.execute"]["count"] == 2
        assert result.phases["cell.execute"]["total_seconds"] == pytest.approx(1.0)
        assert result.phases["cell.execute"]["mean_seconds"] == pytest.approx(0.5)
        assert result.phases["harness.wait"]["count"] == 1
        assert result.to_dict()["phases"] == result.phases

    def test_spanless_case_reports_empty_phases(self):
        result = time_case(_toy_case(), "quick", repeats=1, warmup=0)
        assert result.phases == {}
        assert result.to_dict()["phases"] == {}

    def test_nondeterministic_case_rejected(self):
        flips = iter(range(100))
        case = BenchCase(
            name="flaky",
            description="changes its answer",
            run=lambda: CaseOutcome(payload=next(flips)),
            params={"quick": {}},
        )
        with pytest.raises(RuntimeError, match="non-deterministic"):
            time_case(case, "quick", repeats=2, warmup=0)

    def test_report_roundtrip_is_valid_bench_json(self, tmp_path):
        report = run_benchmarks([_toy_case()], tier="quick", repeats=1, warmup=0)
        path = write_report(report, tmp_path)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"
        loaded = load_report(path)
        assert loaded["schema"] == SCHEMA
        assert loaded["tier"] == "quick"
        assert loaded["git_rev"]
        assert loaded["python"]
        (entry,) = loaded["results"]
        assert entry["case"] == "toy"
        assert entry["wall_seconds"] > 0
        assert entry["digest"]

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bogus.json"
        path.write_text(json.dumps({"schema": "something-else", "results": []}))
        with pytest.raises(ValueError, match="unknown bench report schema"):
            load_report(path)


def _report_with(wall, digest="abc", case="toy", tier="quick"):
    return {
        "schema": SCHEMA,
        "tier": tier,
        "results": [
            {
                "case": case,
                "tier": tier,
                "wall_seconds": wall,
                "events": 1000,
                "events_per_sec": 1000 / wall,
                "digest": digest,
            }
        ],
    }


class TestComparator:
    def test_injected_50_percent_slowdown_fails(self):
        comparison = compare_reports(_report_with(1.0), _report_with(1.5))
        assert not comparison.ok
        assert [d.case for d in comparison.regressions] == ["toy"]
        assert "REGRESSION" in comparison.summary()

    def test_speedup_and_small_noise_pass(self):
        assert compare_reports(_report_with(1.0), _report_with(0.4)).ok
        assert compare_reports(_report_with(1.0), _report_with(1.1)).ok

    def test_threshold_is_configurable(self):
        assert compare_reports(_report_with(1.0), _report_with(1.1), threshold=0.05).ok is False
        assert compare_reports(_report_with(1.0), _report_with(1.4), threshold=0.5).ok

    def test_digest_change_fails_even_when_faster(self):
        comparison = compare_reports(
            _report_with(1.0, digest="abc"), _report_with(0.5, digest="xyz")
        )
        assert not comparison.ok
        assert [d.case for d in comparison.digest_changes] == ["toy"]
        assert "digest mismatch" in comparison.summary()

    def test_digest_check_can_be_disabled(self):
        comparison = compare_reports(
            _report_with(1.0, digest="abc"),
            _report_with(0.5, digest="xyz"),
            check_digests=False,
        )
        assert comparison.ok

    def test_cross_tier_comparison_fails_loudly(self):
        comparison = compare_reports(
            _report_with(0.1, tier="quick"), _report_with(2.0, tier="full")
        )
        assert not comparison.ok
        assert [d.case for d in comparison.tier_mismatches] == ["toy"]
        # No bogus wall-time judgement is made on incomparable tiers.
        assert comparison.regressions == []
        assert "TIER MISMATCH" in comparison.summary()

    def test_missing_case_reported_but_not_fatal(self):
        comparison = compare_reports(_report_with(1.0), _report_with(1.0, case="other"))
        assert comparison.ok
        statuses = {d.case: d.status for d in comparison.deltas}
        assert statuses == {"toy": "missing", "other": "missing"}


class TestCli:
    def test_run_emits_bench_json(self, tmp_path, capsys):
        code = bench_main(
            ["--quick", "--case", "dlt.multiround", "--repeats", "1",
             "--warmup", "0", "--output", str(tmp_path)]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        report = load_report(tmp_path / printed.split("/")[-1])
        (entry,) = report["results"]
        assert entry["case"] == "dlt.multiround"
        assert entry["cells_per_sec"] > 0

    def test_compare_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        slow = tmp_path / "slow.json"
        base.write_text(json.dumps(_report_with(1.0)))
        slow.write_text(json.dumps(_report_with(1.5)))
        assert bench_main(["compare", str(base), str(slow)]) == 1
        assert bench_main(["compare", str(base), str(slow), "--warn-only"]) == 0
        assert bench_main(["compare", str(base), str(base)]) == 0
        capsys.readouterr()

    def test_fail_on_digest_keeps_digest_gate_hard_under_warn_only(
        self, tmp_path, capsys
    ):
        base = tmp_path / "base.json"
        slow = tmp_path / "slow.json"
        drift = tmp_path / "drift.json"
        base.write_text(json.dumps(_report_with(1.0)))
        slow.write_text(json.dumps(_report_with(1.5)))
        drift.write_text(json.dumps(_report_with(1.0, digest="xyz")))
        # Timing regression stays advisory; digest drift does not.
        assert bench_main(
            ["compare", str(base), str(slow), "--warn-only", "--fail-on-digest"]
        ) == 0
        assert bench_main(
            ["compare", str(base), str(drift), "--warn-only", "--fail-on-digest"]
        ) == 1
        assert bench_main(
            ["compare", str(base), str(base), "--warn-only", "--fail-on-digest"]
        ) == 0
        with pytest.raises(SystemExit, match="contradictory"):
            bench_main(
                ["compare", str(base), str(base), "--fail-on-digest",
                 "--no-digest-check"]
            )
        capsys.readouterr()

    def test_list(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "kernel.churn" in out


class TestTimingGuard:
    """The runner must refuse to time with observation overhead switched on."""

    def test_spans_env_flag_aborts_timing(self, monkeypatch):
        from repro.bench.runner import PerturbedTimingError

        monkeypatch.setenv("REPRO_SPANS", "1")
        with pytest.raises(PerturbedTimingError, match="REPRO_SPANS"):
            time_case(_toy_case(), "quick", repeats=1, warmup=0)

    def test_live_bus_subscriber_aborts_timing(self):
        from repro.bench.runner import PerturbedTimingError
        from repro.telemetry.bus import get_bus

        subscription = get_bus().subscribe()
        try:
            with pytest.raises(PerturbedTimingError, match="subscribers"):
                time_case(_toy_case(), "quick", repeats=1, warmup=0)
        finally:
            subscription.close()
        # With the subscriber gone timing proceeds normally again.
        assert time_case(_toy_case(), "quick", repeats=1, warmup=0).digest
