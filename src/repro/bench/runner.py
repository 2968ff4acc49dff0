"""Benchmark runner: warmup/repeat/median timing + ``BENCH_*.json`` reports.

The runner executes each registered :class:`~repro.bench.cases.BenchCase`
``warmup`` times untimed, then ``repeats`` times under ``time.perf_counter``,
and reports the **median** wall time together with derived rates
(events/sec, cells/sec) and a SHA-256 digest of the case's result payload.
Reports are written as ``BENCH_<timestamp>.json`` so that successive runs
never overwrite each other and the comparator (:mod:`repro.bench.compare`)
can diff any two of them.
"""

from __future__ import annotations

import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.cases import BenchCase, CaseOutcome

SCHEMA = "repro.bench/1"


class PerturbedTimingError(RuntimeError):
    """Raised when timed bench repeats would run with observation overhead on."""

#: Default directory for benchmark reports (relative to the repo root /
#: current working directory).
DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"


@dataclass
class CaseResult:
    """Timing + determinism summary of one bench case at one tier."""

    case: str
    tier: str
    wall_seconds: float
    samples: Sequence[float]
    repeats: int
    warmup: int
    events: Optional[int]
    events_per_sec: Optional[float]
    cells: Optional[int]
    cells_per_sec: Optional[float]
    digest: str
    phases: Dict[str, Dict[str, float]] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "case": self.case,
            "tier": self.tier,
            "wall_seconds": self.wall_seconds,
            "samples": list(self.samples),
            "repeats": self.repeats,
            "warmup": self.warmup,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "cells": self.cells,
            "cells_per_sec": self.cells_per_sec,
            "digest": self.digest,
            "phases": self.phases,
        }


def payload_digest(payload: Any) -> str:
    """Stable SHA-256 of a JSON-serialisable result payload."""

    encoded = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(encoded).hexdigest()


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except OSError:
        return "unknown"


def assert_unperturbed_timing() -> None:
    """Fail fast if the timed repeats would not measure the bare hot path.

    Two observation switches add per-event/per-span overhead to every run:
    a live subscriber on the process-wide telemetry bus (a dashboard, a
    flight recorder) and the ``REPRO_SPANS`` environment flag, which forces
    span capture on even with no subscriber.  A committed BENCH report taken
    with either one active understates the engine by tens of percent and
    poisons every later comparison against it, so the runner refuses to time
    under them instead of silently recording the slow numbers.
    """

    import os

    from repro.telemetry.bus import get_bus
    from repro.telemetry.spans import SPANS_ENV_VAR

    if os.environ.get(SPANS_ENV_VAR, "").strip():
        raise PerturbedTimingError(
            f"refusing to time benchmarks with {SPANS_ENV_VAR}="
            f"{os.environ[SPANS_ENV_VAR]!r} set: forced span capture perturbs "
            f"the timed repeats. Unset {SPANS_ENV_VAR} and re-run "
            "(the runner collects its own span profile on the untimed "
            "reference run)."
        )
    bus = get_bus()
    if bus.has_subscribers():
        raise PerturbedTimingError(
            "refusing to time benchmarks while the telemetry bus has live "
            "subscribers (a dashboard, recorder or listener is attached): "
            "span capture switches on and perturbs the timed repeats. "
            "Close the subscribers (or run the bench in a fresh process) "
            "and re-run."
        )


def time_case(
    case: BenchCase,
    tier: str,
    *,
    repeats: int = 3,
    warmup: int = 1,
) -> CaseResult:
    """Run one case: ``warmup`` untimed runs, ``repeats`` timed, median wall."""

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    # The determinism reference run doubles as the profiling run: a private
    # bus with a span subscriber turns the harness/worker spans on for this
    # run only.  Warmups and timed repeats see the restored bus (and, with
    # no subscriber, zero-cost NULL spans), so timing stays unperturbed.
    outcome, phases = _profiled_reference_run(case, tier)
    digest = payload_digest(outcome.payload)
    # The reference run above observed itself through a *private* bus that
    # is already restored; from here on, timing must see the bare hot path.
    assert_unperturbed_timing()
    for _ in range(warmup):
        case.run_tier(tier)
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        timed = case.run_tier(tier)
        samples.append(time.perf_counter() - start)
        if payload_digest(timed.payload) != digest:
            raise RuntimeError(
                f"bench case {case.name!r} is non-deterministic: "
                "result payload changed between repeats"
            )
    wall = statistics.median(samples)
    return CaseResult(
        case=case.name,
        tier=tier,
        wall_seconds=wall,
        samples=samples,
        repeats=repeats,
        warmup=warmup,
        events=outcome.events,
        events_per_sec=(outcome.events / wall) if outcome.events and wall > 0 else None,
        cells=outcome.cells,
        cells_per_sec=(outcome.cells / wall) if outcome.cells and wall > 0 else None,
        digest=digest,
        phases=phases,
    )


def _profiled_reference_run(
    case: BenchCase, tier: str
) -> "tuple[CaseOutcome, Dict[str, Dict[str, float]]]":
    """Run the case once with spans enabled; return (outcome, phase summary)."""

    from repro.telemetry.bus import TelemetryBus, set_bus
    from repro.telemetry.events import TOPIC_SCHEDULER_SPANS, TOPIC_SPANS

    bus = TelemetryBus(history=256, subscriber_buffer=65536)
    subscription = bus.subscribe([TOPIC_SPANS, TOPIC_SCHEDULER_SPANS])
    previous = set_bus(bus)
    try:
        outcome: CaseOutcome = case.run_tier(tier)
    finally:
        set_bus(previous)
    phases: Dict[str, Dict[str, float]] = {}
    for event in subscription.poll():
        body = event.payload
        name = body.get("name")
        seconds = body.get("seconds")
        if body.get("kind") != "span" or not name:
            continue
        if not isinstance(seconds, (int, float)):
            continue
        bucket = phases.setdefault(
            str(name), {"count": 0, "total_seconds": 0.0}
        )
        bucket["count"] += 1
        bucket["total_seconds"] += float(seconds)
    subscription.close()
    for bucket in phases.values():
        bucket["mean_seconds"] = bucket["total_seconds"] / bucket["count"]
    return outcome, phases


def run_benchmarks(
    cases: Sequence[BenchCase],
    *,
    tier: str = "quick",
    repeats: int = 3,
    warmup: int = 1,
    progress: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run ``cases`` and return the full (JSON-serialisable) report."""

    results = []
    for case in cases:
        if progress is not None:
            progress(f"running {case.name} [{tier}] ...")
        result = time_case(case, tier, repeats=repeats, warmup=warmup)
        if progress is not None:
            rate = (
                f"{result.events_per_sec:,.0f} events/s"
                if result.events_per_sec
                else f"{result.cells_per_sec:,.1f} cells/s"
                if result.cells_per_sec
                else "n/a"
            )
            progress(
                f"  {case.name}: median {result.wall_seconds * 1e3:.1f} ms "
                f"({rate}, digest {result.digest[:12]})"
            )
        results.append(result.to_dict())
    return {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_rev": git_revision(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "tier": tier,
        "results": results,
    }


def write_report(report: Dict[str, Any], output: Optional[Path] = None) -> Path:
    """Write the report to ``BENCH_<timestamp>.json`` (or an explicit path)."""

    if output is None:
        output = DEFAULT_RESULTS_DIR / f"BENCH_{time.strftime('%Y%m%dT%H%M%S')}.json"
    elif output.suffix.lower() != ".json" or output.is_dir():
        # Anything that is not an explicit .json file path is a directory to
        # drop a timestamped report into (it may not exist yet, e.g. the CI
        # scratch dir).
        output = output / f"BENCH_{time.strftime('%Y%m%dT%H%M%S')}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return output


def load_report(path: Path) -> Dict[str, Any]:
    with open(path) as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unknown bench report schema {report.get('schema')!r} "
            f"(expected {SCHEMA!r})"
        )
    return report
