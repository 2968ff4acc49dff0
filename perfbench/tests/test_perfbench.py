"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import bench, layers  # noqa: E402
from perfbench import run as cli  # noqa: E402
from perfbench.checks import load_pinned  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, run_pass  # noqa: E402

bench.import_program()

#: A two-sweep pass of a few tenths of a second that touches the composer,
#: workload, bounds, runtime and policies layers.
TINY = Workload("tiny", ("dlt.multiround-scaling", "cluster.policy-panel"), smoke=True)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def quick(monkeypatch):
    """One probe and one timed pass per run."""

    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    monkeypatch.setattr(bench, "MIN_PASSES", 1)


def _wrappers_left() -> list:
    """Every attribute of a repro module or class that is a layer wrapper."""

    left = []
    for module in layers._repro_modules():
        for name, value in list(vars(module).items()):
            if layers.MARKER in getattr(value, "__dict__", {}):
                left.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attribute, raw in list(vars(value).items()):
                    func = getattr(raw, "__func__", raw)
                    if layers.MARKER in getattr(func, "__dict__", {}):
                        left.append(f"{module.__name__}.{name}.{attribute}")
    return left


def test_traced_pass_removes_its_wrappers(tmp_path):
    TINY.import_program()
    specs = TINY.resolve(0)
    run_pass(TINY, specs, tmp_path)  # imports every module the pass needs
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert _wrappers_left(), "install() wrapped nothing"
        traced = run_pass(TINY, specs, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert _wrappers_left() == []
    assert not tracer.installed
    profile = tracer.take()
    assert profile["scenarios.spans"] == traced.cells
    assert profile["runtime.runs"] > 0 and profile["policies.select.spans"] > 0
    # An untraced pass after uninstall records nothing.
    run_pass(TINY, specs, tmp_path)
    assert tracer.spans == []


def test_self_time_subtracts_children_once():
    tracer = layers.Tracer()
    parent = ["a", None, 0.0, 10.0]
    children = [["b", parent, 1.0, 4.0], ["b", parent, 3.0, 5.0], ["c", parent, 9.0, 12.0]]
    tracer.spans = [parent] + children
    profile = tracer.take()
    assert profile["a.self"] == pytest.approx(10.0 - 4.0 - 1.0)  # union [1,5] + [9,10]
    assert profile["b.self"] == pytest.approx(3.0 + 2.0)


def test_wrong_digest_fails_the_run(quick, monkeypatch, capsys):
    pinned = load_pinned()
    pinned["grid"]["grid.hetero-mix"] = "0" * 64
    monkeypatch.setattr("perfbench.checks.load_pinned", lambda: pinned)
    code = cli.main(["--workload", "grid", "--seed", "0", "--seconds", "0", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False
    # grid.hetero-mix has 18 of grid's 60 cells; every pass (warm-up + 1
    # timed) fails them.
    assert result["failed"] == 36 and result["attempted"] == 120
    assert "failed_frac 0.3 ratio" in lines


def test_bound_violation_fails_the_cell():
    from perfbench.checks import bound_violations

    assert bound_violations({"cmax_ratio": 8.5}) and bound_violations({"makespan_ratio": 0.9})
    assert bound_violations({"cmax_ratio": 1.0, "wici_ratio": 8.0, "makespan_ratio": 1.2}) == []


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(quick, trace):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    reports = {
        name: bench.run(workload, 0, 0, bool(trace), pinned=load_pinned()[name])
        for name, workload in WORKLOADS.items()
    }
    for name, report in reports.items():
        assert report.correct, (name, report.problems)
        assert {metric: unit for metric, (_value, unit) in report.metrics.items()} == units
        for metric, (value, _unit) in report.metrics.items():
            assert math.isfinite(value), (name, metric)
            if not trace:
                assert value > 0, (name, metric)
    if trace:
        value = {name: {m: v for m, (v, _u) in r.metrics.items()} for name, r in reports.items()}
        # The design's split: each layer loaded on one workload, idle on another.
        assert value["offline"]["policies.schedule_calls"] > 0
        assert value["offline"]["runtime.runs"] == value["offline"]["hooks.calls"] == 0
        assert value["online"]["policies.select_calls"] > 0
        assert value["online"]["policies.schedule_calls"] == 0
        assert value["grid"]["runtime.be_kills"] > 0
        assert value["grid"]["policies.schedule_calls"] == 0
        assert value["campaign"]["distributed.frames"] > 0
        assert value["campaign"]["store.rows_written"] == value["campaign"]["scenarios.cells"]
        for name in WORKLOADS:
            assert value[name]["trace.coverage_frac"] >= 0.9


def test_seed_reaches_the_specs(tmp_path):
    from repro.scenarios import get

    assert cli.parse_args(["--workload", "grid", "--seed", "7"]).seed == 7
    with pytest.raises(SystemExit):
        cli.parse_args(["--workload", "grid", "--seed", "-1"])
    for workload in WORKLOADS.values():
        for spec in workload.resolve(7):
            assert spec.seed == get(spec.name).seed + 7
    result = run_pass(TINY, TINY.resolve(7), tmp_path)
    for sweep in result.sweeps:
        base = get(sweep.scenario).seed + 7
        assert {row["seed"] for row in sweep.result.rows} == {base}  # smoke: one repetition
