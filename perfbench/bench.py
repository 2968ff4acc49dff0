"""One benchmark run: set-up probes, a warm-up pass, then timed passes.

With ``trace=False`` the run reports the end-to-end metrics; with
``trace=True`` it alternates untraced and traced passes and reports the
per-layer metrics (``perfbench/README.md`` maps each to the end-to-end
metric it should move).  Every pass, traced or not, is checked by
:class:`perfbench.checks.Checker`.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from perfbench.checks import Checker
from perfbench.layers import SELF_TIME_LAYERS, Tracer
from perfbench.workloads import Pass, Workload, run_pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (campaign stores, trace dumps).
WORK_DIR = ROOT / ".perfbench"

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Timed passes per run at the least, whatever ``seconds`` says (per kind
#: of pass in a traced run).
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120
#: What :func:`reference_time` takes on this benchmark's reference host
#: when nothing else loads it (about its fastest decile on a 2-vCPU x86_64
#: VM with Python 3.11).  Timed walls are rescaled to that host speed.
REFERENCE_S = 0.015

UNITS = {
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "setup.import_s": "s", "setup.resolve_s": "s",
    "scenarios.cells": "count", "scenarios.self_s": "s",
    "experiments.self_s": "s",
    "workload.jobs": "count", "workload.self_s": "s",
    "platform.self_s": "s",
    "policies.schedule_calls": "count", "policies.schedule_s": "s",
    "policies.select_calls": "count", "policies.select_s": "s",
    "bounds.calls": "count", "bounds.self_s": "s",
    "dlt.calls": "count", "dlt.self_s": "s",
    "runtime.runs": "count", "runtime.self_s": "s",
    "kernel.events": "count", "kernel.events_per_s": "events/s",
    "hooks.calls": "count", "hooks.self_s": "s",
    "runtime.be_launches": "count", "runtime.be_kills": "count",
    "runtime.be_useful_frac": "ratio",
    "distributed.dispatch_s": "s", "distributed.codec_s": "s",
    "distributed.frames": "count", "distributed.frame_bytes": "bytes",
    "distributed.steals": "count", "distributed.useful_frac": "ratio",
    "store.rows_written": "count", "store.write_s": "s", "store.bytes": "bytes",
    "store.queries": "count", "store.rows_scanned": "count", "store.query_s": "s",
    "store.query_rows_per_s": "rows/s",
    "trace.wall_s": "s", "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
    "host.reference_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program sources, a probe failed...)."""


@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    passes: int
    environment: Dict[str, Any]
    problems: List[str] = field(default_factory=list)
    #: Printed beside the metrics, not part of the result object.
    notes: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        })


def clean_environment() -> None:
    """Drop every ``REPRO_*`` variable (jobs, cache, spans, kernel, journal...)
    so the program runs as a default install would."""

    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


def import_program() -> Any:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""

    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchmarkError(f"imported repro from {repro.__file__}, not from {SRC}")
    return repro


def reference_time() -> float:
    """Seconds a fixed pure-python loop takes now: the host's current speed.

    The loop runs no program code and allocates no tracked objects (and the
    collector is paused), so nothing a change to the program does can alter
    it; only the shared host's CPU throughput does.
    """

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0.0
        items = []
        for i in range(80000):
            key = i % 101
            table[key] = table.get(key, 0) + 1
            total += (i * 0.5) / (key + 1)
            if key < 3:
                items.append(i * 7919 % 1009)
        items.sort()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Rescales timed walls to the reference host's speed.

    Each vCPU of the shared host swings between full and about 0.6x speed
    within seconds, independently of the other (two reference loops pinned
    to the two vCPUs correlate at 0.14), which would drown any change to the
    program.  The clock times the reference loop on every vCPU the work may
    run on, before and after each piece of work, and :meth:`bracket` returns
    ``REFERENCE_S / mean(those reference times)``: multiplied by the work's
    wall, the seconds it would have taken on the unloaded reference host.
    """

    def __init__(self, cpus: Set[int]) -> None:
        self.cpus = sorted(cpus)
        self.samples: List[float] = []
        self.mark()

    def _sample(self) -> float:
        times = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(reference_time())
        os.sched_setaffinity(0, self.cpus)
        return sum(times) / len(times)

    def mark(self) -> None:
        """Open a bracket: time the reference loop before the work."""

        self.samples.append(self._sample())

    def bracket(self) -> float:
        """Close the bracket of the work just done; returns its speed factor."""

        self.samples.append(self._sample())
        return REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2)


def probe_setup(workload: Workload, seed: int, probes: int, clock: HostClock) -> List[Dict[str, float]]:
    """Time ``probes`` fresh interpreters from start to resolved specs
    (in reference-host seconds)."""

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    samples = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.probe", workload.name, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        scale = clock.bracket()
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{done.stderr.strip()}")
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append({key: value * scale for key, value in sample.items() if key.endswith("_s")})
    return samples


def environment() -> Dict[str, Any]:
    from repro.bench.runner import git_revision
    from repro.simulation.kernel import resolve_kernel

    return {
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel": resolve_kernel(),
        "machine": platform.machine(),
    }


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    pinned: Optional[Dict[str, str]],
) -> Report:
    """One benchmark run; ``pinned`` maps scenario -> digest (``None`` on a
    held-out seed, where passes are checked against the run's first pass)."""

    import_program()
    from repro.bench.runner import assert_unperturbed_timing

    # A serial workload runs on one thread: pin it (and the probes) to one
    # vCPU, the one its reference loop is timed on.  The campaign's fleet
    # threads use every vCPU.
    cpus = os.sched_getaffinity(0)
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        clock = HostClock(cpus if workload.campaign else {min(cpus)})
        setup = probe_setup(workload, seed, SETUP_PROBES, clock)
        workload.import_program()
        specs = workload.resolve(seed)
        checker = Checker(pinned)
        checker.check(run_pass(workload, specs, work_dir))  # warm-up, untimed
        assert_unperturbed_timing()
        clock.mark()
        measure = _traced if trace else _timed
        metrics, passes = measure(workload, specs, work_dir, seconds, checker, clock)
        assert_unperturbed_timing()
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work_dir, ignore_errors=True)
    if trace:
        metrics["setup.import_s"] = (statistics.median(s["import_s"] for s in setup), "s")
        metrics["setup.resolve_s"] = (statistics.median(s["resolve_s"] for s in setup), "s")
        metrics["host.reference_s"] = (statistics.median(clock.samples), "s")
        declared = LAYER_UNITS
    else:
        metrics["setup_s"] = (
            statistics.median(s["import_s"] + s["resolve_s"] for s in setup), UNITS["setup_s"]
        )
        declared = UNITS
    notes = {name: value for name, value in metrics.items() if name not in declared}
    notes["failed_frac"] = (checker.failed_frac, "ratio")
    metrics = {name: metrics[name] for name in declared}
    return Report(
        workload=workload.name, seed=seed, trace=trace, metrics=metrics,
        attempted=checker.attempted, failed=checker.failed, passes=passes,
        environment=environment(), problems=checker.problems, notes=notes,
    )


def _passes(seconds: float) -> Iterator[int]:
    deadline = time.perf_counter() + seconds
    count = 0
    while count < MIN_PASSES or time.perf_counter() < deadline:
        yield count
        count += 1


def _timed(workload, specs, work_dir, seconds, checker, clock):
    cells, wall, raw_wall, passes = 0, 0.0, 0.0, 0
    for passes in _passes(seconds):
        result = run_pass(workload, specs, work_dir)
        scale = clock.bracket()
        checker.check(result)
        cells += result.cells
        raw_wall += result.wall_s
        wall += result.wall_s * scale
    metrics = {
        # Closed-loop throughput over the whole timed window: cells done
        # divided by the (reference-host) wall they took.
        "cells_per_s": (cells / wall, UNITS["cells_per_s"]),
        "cells_per_s_unscaled": (cells / raw_wall, UNITS["cells_per_s"]),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, UNITS["peak_rss_mb"]),
    }
    return metrics, passes + 1


def _traced(workload, specs, work_dir, seconds, checker, clock):
    tracer = Tracer()
    plain: List[Tuple[Pass, float]] = []
    traced: List[Tuple[Pass, float, Dict[str, float]]] = []
    for _ in _passes(seconds):
        result = run_pass(workload, specs, work_dir)
        plain.append((result, clock.bracket()))
        checker.check(result)
        tracer.install()
        try:
            result = run_pass(workload, specs, work_dir, tracer)
        finally:
            tracer.uninstall()
        traced.append((result, clock.bracket(), tracer.take()))
        checker.check(result)

    samples = [_layer_metrics(result, scale, profile) for result, scale, profile in traced]
    metrics = {
        name: (statistics.median(sample[name] for sample in samples), LAYER_UNITS[name])
        for name in samples[0]
    }
    # Each traced pass against the untraced pass just before it.
    metrics["trace.overhead_frac"] = (statistics.median(
        (result.wall_s * scale) / (before.wall_s * before_scale) - 1
        for (before, before_scale), (result, scale, _profile) in zip(plain, traced)
    ), "ratio")
    # Dispatch and read rates come from the untraced passes, which the
    # wrappers do not slow down.
    metrics["distributed.dispatch_s"] = (statistics.median(
        scale * sum(s.wall_s - sum(s.result.cell_seconds) for s in result.sweeps)
        if workload.campaign else 0.0
        for result, scale in plain
    ), "s")
    metrics["store.query_rows_per_s"] = (statistics.median(
        result.rows_written * result.queries / (result.read_wall_s * scale)
        if result.read_wall_s else 0.0
        for result, scale in plain
    ), "rows/s")
    _dump_trace(workload, plain, traced, metrics)
    return metrics, len(traced)


def _layer_metrics(result: Pass, scale: float, profile: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, times in reference-host seconds."""

    def self_s(layer: str) -> float:
        return profile.get(f"{layer}.self", 0.0) * scale

    def spans(layer: str) -> float:
        return profile.get(f"{layer}.spans", 0.0)

    runtime_s = self_s("runtime")
    events = profile.get("kernel.events", 0.0)
    launches = profile.get("runtime.be_launches", 0.0)
    stats = result.scheduler_stats
    executions = stats.results + stats.duplicates if stats is not None else 0
    return {
        "scenarios.cells": spans("scenarios"),
        "scenarios.self_s": self_s("scenarios"),
        "experiments.self_s": self_s("experiments"),
        "workload.jobs": profile.get("workload.jobs", 0.0),
        "workload.self_s": self_s("workload"),
        "platform.self_s": self_s("platform"),
        "policies.schedule_calls": spans("policies.schedule"),
        "policies.schedule_s": self_s("policies.schedule"),
        "policies.select_calls": spans("policies.select"),
        "policies.select_s": self_s("policies.select"),
        "bounds.calls": spans("bounds"),
        "bounds.self_s": self_s("bounds"),
        "dlt.calls": spans("dlt"),
        "dlt.self_s": self_s("dlt"),
        "runtime.runs": profile.get("runtime.runs", 0.0),
        "runtime.self_s": runtime_s,
        "kernel.events": events,
        "kernel.events_per_s": events / runtime_s if runtime_s > 0 else 0.0,
        "hooks.calls": spans("hooks"),
        "hooks.self_s": self_s("hooks"),
        "runtime.be_launches": launches,
        "runtime.be_kills": profile.get("runtime.be_kills", 0.0),
        "runtime.be_useful_frac": (
            profile.get("runtime.be_completed", 0.0) / launches if launches else 0.0
        ),
        "distributed.codec_s": self_s("distributed.codec"),
        "distributed.frames": profile.get("distributed.frames", 0.0),
        "distributed.frame_bytes": profile.get("distributed.frame_bytes", 0.0),
        "distributed.steals": float(stats.steals) if stats is not None else 0.0,
        "distributed.useful_frac": stats.results / executions if executions else 0.0,
        "store.rows_written": float(result.rows_written),
        "store.write_s": self_s("store.write"),
        "store.bytes": float(result.store_bytes),
        "store.queries": float(result.queries),
        "store.rows_scanned": float(result.rows_written * result.queries),
        "store.query_s": self_s("store.query"),
        "trace.wall_s": result.wall_s * scale,
        "trace.coverage_frac": sum(self_s(layer) for layer in SELF_TIME_LAYERS) / (result.wall_s * scale),
    }


def _dump_trace(workload, plain, traced, metrics) -> None:
    """Write the run's per-pass layer profiles (raw seconds) into the work dir."""

    path = WORK_DIR / f"trace-{workload.name}.json"
    path.write_text(json.dumps({
        "workload": workload.name,
        "untraced": [{"wall_s": result.wall_s, "scale": scale} for result, scale in plain],
        "traced": [
            {"wall_s": result.wall_s, "scale": scale, "profile": profile}
            for result, scale, profile in traced
        ],
        "metrics": {name: value for name, (value, _unit) in metrics.items()},
    }, indent=1, sort_keys=True))
