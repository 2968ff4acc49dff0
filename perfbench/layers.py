"""Per-layer tracing from outside the program.

For a traced pass only, :meth:`Tracer.install` replaces the public entry
points of each ``src/repro`` layer with thin wrappers that record a span
(layer, parent span, start, end) and, at a few boundaries, a count read off
the call's arguments or result.  :meth:`Tracer.uninstall` puts every
original back, so untimed and timed passes never see a wrapper.

Spans live in memory; :meth:`Tracer.take` turns the spans of a pass into
per-layer self times (a span's duration minus the part of it its child
spans cover) and call counts, then forgets them.  Work that another thread
does for a sweep -- cells and frame coding of an ``inproc://`` fleet -- has
no parent on its own thread and is parented to the benchmark's root span
(:meth:`Tracer.root`) instead.

A function is wrapped wherever a ``repro`` module binds it, so callers that
imported it by name (``from repro.metrics.ratios import schedule_ratios``)
and callers that look it up at call time both reach the wrapper.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer keys whose self times partition a traced pass's wall time.
SELF_TIME_LAYERS = (
    "experiments", "scenarios", "workload", "platform", "policies.schedule",
    "policies.select", "bounds", "dlt", "runtime", "hooks", "distributed.codec",
    "store.write", "store.query",
)

#: Marker attribute set on every wrapper (tests look for leftovers).
MARKER = "__perfbench_layer__"

Counter = Callable[["Tracer", list, tuple, Any], None]


class Tracer:
    """Span recorder plus the install/uninstall of the layer wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: List[list] = []  # [layer, parent span, start, end]
        self.counts: Dict[str, float] = collections.defaultdict(float)
        self.anchor: Optional[list] = None
        self._patches: List[Tuple[Any, str, Any]] = []  # (owner, attribute, original)
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}  # id -> (wrapper, original)

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, layer: str) -> list:
        stack = self._stack()
        span = [layer, stack[-1] if stack else self.anchor, time.perf_counter(), None]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def root(self, layer: str) -> Iterator[list]:
        """A benchmark-side span that also parents other threads' spans."""

        span = self.open(layer)
        previous, self.anchor = self.anchor, span
        try:
            yield span
        finally:
            self.anchor = previous
            self.close(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    @staticmethod
    def outermost(span: list) -> bool:
        """True when no enclosing span belongs to the same layer."""

        return span[1] is None or span[1][0] != span[0]

    def take(self) -> Dict[str, float]:
        """Self seconds (``<layer>.self``) and span counts (``<layer>.spans``)
        per layer plus the counters, for the spans recorded so far; resets."""

        spans, self.spans = self.spans, []
        counts, self.counts = self.counts, collections.defaultdict(float)
        children: Dict[int, List[list]] = collections.defaultdict(list)
        for span in spans:
            if span[1] is not None and span[3] is not None:
                children[id(span[1])].append(span)
        profile: Dict[str, float] = {f"{layer}.self": 0.0 for layer in SELF_TIME_LAYERS}
        for span in spans:
            layer, _parent, start, end = span
            if end is None:
                continue
            covered = _covered(start, end, children.get(id(span), ()))
            profile[f"{layer}.self"] = profile.get(f"{layer}.self", 0.0) + (end - start) - covered
            profile[f"{layer}.spans"] = profile.get(f"{layer}.spans", 0.0) + 1
        profile.update(counts)
        return profile

    # -- wrappers -------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable, counter: Optional[Counter] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                counter(tracer, span, args, result)
            return result

        setattr(wrapper, MARKER, layer)
        self._wrappers[id(wrapper)] = (wrapper, fn)
        return wrapper

    def patch_function(self, layer: str, fn: Callable, counter: Optional[Counter] = None) -> None:
        """Wrap ``fn`` in every ``repro`` module that binds it."""

        wrapper = self.wrap(layer, fn, counter)
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attribute, fn))
                    setattr(module, attribute, wrapper)

    def patch_method(self, layer: str, cls: type, name: str, counter: Optional[Counter] = None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            patched: Any = classmethod(self.wrap(layer, raw.__func__, counter))
        else:
            patched = self.wrap(layer, raw, counter)
        self._patches.append((cls, name, raw))
        setattr(cls, name, patched)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        for layer, owner, name, counter in _boundaries():
            if isinstance(owner, type):
                self.patch_method(layer, owner, name, counter)
            else:
                self.patch_function(layer, getattr(owner, name), counter)

    def uninstall(self) -> None:
        """Restore every original, including bindings that modules imported
        while the wrappers were installed took from a patched module."""

        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                wrapper, original = self._wrappers.get(id(value), (None, None))
                if value is wrapper:
                    setattr(module, attribute, original)
        self._wrappers = {}

    @property
    def installed(self) -> bool:
        return bool(self._patches)


def _covered(start: float, end: float, spans: Any) -> float:
    """Length of the union of ``spans`` clipped to ``[start, end]``."""

    intervals = sorted((max(s[2], start), min(s[3], end)) for s in spans)
    covered, reach = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def _repro_modules() -> List[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


# -- counters read at the boundaries -----------------------------------------


def _jobs(tracer: Tracer, span: list, args: tuple, result: Any) -> None:
    if tracer.outermost(span):
        tracer.count("workload.jobs", len(result))


def _events(tracer: Tracer, span: list, args: tuple, result: Any) -> None:
    tracer.count("runtime.runs")
    tracer.count("kernel.events", args[0].sim.processed_events)


def _best_effort(tracer: Tracer, span: list, args: tuple, result: Any) -> None:
    tracer.count("runtime.be_launches", result.launches)
    tracer.count("runtime.be_kills", result.kills)
    tracer.count("runtime.be_completed", result.total_runs_completed)


def _frame(tracer: Tracer, span: list, args: tuple, result: Any) -> None:
    tracer.count("distributed.frames")
    tracer.count("distributed.frame_bytes", len(result))


def _public_methods(cls: type) -> List[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def _subclasses(cls: type) -> List[type]:
    found, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        found.append(sub)
        todo.extend(sub.__subclasses__())
    return found


def _boundaries() -> List[Tuple[str, Any, str, Optional[Counter]]]:
    """The layer boundaries as ``(layer, owner, name, counter)``: a function
    ``name`` of module ``owner``, or a method ``name`` of class ``owner``."""

    from repro.core.allocation import Schedule
    from repro.core.criteria import CriteriaReport
    from repro.core.dlt import multiround
    from repro.core.policies.base import OfflineScheduler, ReleaseDateScheduler
    from repro.core.policies.online import SchedulingPolicy
    from repro.distributed import protocol
    from repro.metrics import ratios
    from repro.runtime.hooks import BestEffortHook, GridServer, LoadExchangeHook, PolicySwitchHook
    from repro.runtime.lifecycle import SchedulingRuntime
    from repro.scenarios import composer
    from repro.simulation.cluster_sim import ClusterSimulator
    from repro.simulation.decentralized import DecentralizedGridSimulator
    from repro.simulation.grid_sim import CentralizedGridSimulator
    from repro.store.columnar import CampaignStore
    from repro.workload import arrivals, communities, models, parametric

    boundaries: List[Tuple[str, Any, str, Optional[Counter]]] = [
        ("scenarios", composer, "run_scenario_cell", None),
        ("platform", composer, "build_platform", None),
        # Workload generation: the composer's entry points, plus the
        # generators that the grid submissions and the figure-2 point call.
        ("workload", composer, "build_jobs", _jobs),
        ("workload", composer, "apply_arrival", None),
        ("workload", composer, "inject_node_churn", None),
        ("workload", models, "figure2_workload", _jobs),
        ("workload", models, "generate_moldable_jobs", _jobs),
        ("workload", communities, "community_workload", _jobs),
        ("workload", communities, "grid_workload", _jobs),
        ("workload", parametric, "generate_parametric_bags", _jobs),
        ("workload", arrivals, "poisson_arrivals", None),
        ("bounds", ratios, "schedule_ratios", None),
        ("bounds", Schedule, "validate", None),
        ("bounds", CriteriaReport, "from_schedule", None),
        ("dlt", multiround, "optimize_round_count", None),
        ("runtime", SchedulingRuntime, "run", _events),
        ("runtime", ClusterSimulator, "run", None),
        ("runtime", CentralizedGridSimulator, "run", _best_effort),
        ("runtime", DecentralizedGridSimulator, "run", None),
        ("distributed.codec", protocol, "dump_frame", _frame),
        ("distributed.codec", protocol, "load_frame", None),
        ("distributed.codec", protocol, "encode_payload", None),
        ("distributed.codec", protocol, "decode_payload", None),
        ("store.write", CampaignStore, "write", None),
        ("store.write", CampaignStore, "flush", None),
    ]
    offline = {cls for base in (OfflineScheduler, ReleaseDateScheduler) for cls in _subclasses(base)}
    for cls in sorted(offline, key=lambda c: c.__qualname__):
        if "schedule" in vars(cls):
            boundaries.append(("policies.schedule", cls, "schedule", None))
    for cls in _subclasses(SchedulingPolicy):
        if "select" in vars(cls):
            boundaries.append(("policies.select", cls, "select", None))
    for cls in (BestEffortHook, LoadExchangeHook, PolicySwitchHook, GridServer):
        for name in _public_methods(cls):
            boundaries.append(("hooks", cls, name, None))
    return boundaries
