"""Per-layer self time, measured from outside the program.

``LayerTracer.install`` replaces each layer's public functions, at class
or module level, with wrappers that time every call; ``restore`` puts the
originals back and reports whether every attribute is the original
object again.  Calls are aggregated in memory per wrapped function —
calls, total time, self time (duration minus the time of wrapped calls
made inside it) and a log-bucket latency histogram — because a large
workload makes millions of calls and keeping raw spans would cost more
than the layers being measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass, field

# (layer, module, class names or () for module-level functions, function
# names or None for every public function the class itself defines).
TARGETS = (
    ("scenarios", "repro.scenarios.scenario", ("Scenario",), ("build",)),
    ("kernel", "repro.perf.kernel", ("StepCostKernel",), None),
    ("engine", "repro.runtime.engine", ("EngineRun",), ("submit", "step", "result")),
    (
        "scheduler",
        "repro.runtime.scheduler",
        ("Scheduler", "ContinuousBatchingScheduler", "StaticBatchingScheduler"),
        None,
    ),
    ("soa", "repro.runtime.soa", ("RequestTable",), None),
    ("router", "repro.cluster.router", "ROUTER_NAMES", ("route",)),
    ("cluster", "repro.cluster.simulator", ("ClusterSimulator",), ("run",)),
    (
        "obs.metrics",
        "repro.obs.metrics",
        ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
        None,
    ),
    ("obs.telemetry", "repro.obs.telemetry", ("TelemetryHub",), None),
    (
        "obs.profiler",
        "repro.obs.profiler",
        ("StepProfiler",),
        ("record_prefill", "record_decode", "record_idle", "report"),
    ),
    ("optimize.screen", "repro.analysis.optimize.report", (), ("screen",)),
    (
        "optimize.pareto",
        "repro.analysis.optimize.report",
        (),
        ("extract_frontiers", "non_dominated_indices"),
    ),
    ("export", "repro.cluster.simulator", ("ClusterResult",), ("to_json_dict", "load_report")),
    ("export", "repro.runtime.loadgen", ("LoadReport",), ("to_json_dict",)),
    ("export", "repro.analysis.optimize.report", ("OptimizationReport",), ("to_json_dict", "to_json")),
    ("export", "json", (), ("dumps",)),
)

# Histogram buckets are quarter-octaves of nanoseconds (~19% wide).
_BUCKETS_PER_OCTAVE = 4


@dataclass
class FunctionStats:
    """Aggregated timings of one wrapped function."""

    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    histogram: dict[int, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "layer": self.layer,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


def percentile_us(histograms: list[dict], q: float) -> float:
    """The ``q``-th percentile (0-100) of merged histograms, in µs.

    Reads the geometric middle of the bucket the percentile falls in; 0.0
    when no call was recorded.
    """
    merged: dict[int, int] = {}
    for histogram in histograms:
        for bucket, count in histogram.items():
            merged[int(bucket)] = merged.get(int(bucket), 0) + count
    total = sum(merged.values())
    if total == 0:
        return 0.0
    rank = q / 100.0 * total
    seen = 0
    for bucket in sorted(merged):
        seen += merged[bucket]
        if seen >= rank:
            break
    return 2 ** ((bucket + 0.5) / _BUCKETS_PER_OCTAVE) / 1e3


def _owners(module, classes) -> list[object]:
    if isinstance(classes, str):  # a registry of classes, e.g. every router
        return list(dict.fromkeys(getattr(module, classes).values()))
    return [getattr(module, name) for name in classes] or [module]


def _public_functions(owner) -> list[str]:
    return [
        name
        for name, value in vars(owner).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def targets() -> list[tuple[str, object, str]]:
    """Every (layer, owner, function name) the tracer wraps."""
    found = []
    for layer, module_name, classes, names in TARGETS:
        module = importlib.import_module(module_name)
        for owner in _owners(module, classes):
            for name in names or _public_functions(owner):
                if isinstance(classes, str) and name not in vars(owner):
                    continue  # a registered class that inherits the function
                found.append((layer, owner, name))
    return found


class LayerTracer:
    """Installs and removes the timing wrappers; holds the aggregates."""

    def __init__(self) -> None:
        self.stats: dict[str, FunctionStats] = {}
        self._stack: list[float] = []  # wrapped-children time per open call
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, owner, name in targets():
            original = vars(owner)[name]
            qualname = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
            stats = self.stats.setdefault(qualname, FunctionStats(layer))
            self._patched.append((owner, name, original))
            setattr(owner, name, self._wrap(original, stats))

    def restore(self) -> bool:
        """Put every original back; True when all attributes are restored."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        restored = all(
            vars(owner)[name] is original for owner, name, original in self._patched
        )
        self._patched = []
        return restored

    def _wrap(self, original, stats: FunctionStats):
        stack = self._stack
        clock = time.perf_counter
        log2 = math.log2
        histogram = stats.histogram

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                bucket = int(log2(elapsed * 1e9) * _BUCKETS_PER_OCTAVE) if elapsed > 0 else 0
                histogram[bucket] = histogram.get(bucket, 0) + 1

        return wrapper
