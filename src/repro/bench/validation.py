"""Cross-validation between the closed-form estimator and the event engine.

The suite has two independent implementations of the same performance
model: the analytical estimator (fast path, powers the figure
reproductions) and the discrete-event engine (request-level simulation).
This module samples random benchmark points and compares them — the
simulator's internal consistency check, exposed to users via
``llm-inference-bench validate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.request import GenerationConfig
from repro.core.stats import mean
from repro.frameworks.base import get_framework
from repro.frameworks.support import supported_pairs
from repro.hardware.zoo import get_hardware
from repro.models.zoo import SEVEN_B_MODELS, get_model
from repro.perf.estimator import InferenceEstimator
from repro.perf.phases import Deployment
from repro.runtime.engine import ServingEngine
from repro.runtime.paged_kv import OutOfMemoryError
from repro.runtime.workload import fixed_batch_trace

__all__ = ["ValidationPoint", "ValidationSummary", "cross_validate"]


@dataclass(frozen=True)
class ValidationPoint:
    """One sampled configuration and both implementations' answers."""

    model: str
    hardware: str
    framework: str
    batch_size: int
    length: int
    estimator_tput: float
    engine_tput: float

    @property
    def relative_error(self) -> float:
        if self.estimator_tput == 0.0 and self.engine_tput == 0.0:
            return 0.0
        denom = max(self.estimator_tput, self.engine_tput)
        return abs(self.estimator_tput - self.engine_tput) / denom


@dataclass(frozen=True)
class ValidationSummary:
    points: tuple[ValidationPoint, ...]
    skipped_oom: int

    @property
    def max_relative_error(self) -> float:
        if not self.points:
            return 0.0
        return max(p.relative_error for p in self.points)

    @property
    def mean_relative_error(self) -> float:
        if not self.points:
            return 0.0
        return mean(p.relative_error for p in self.points)

    def worst(self, n: int = 5) -> list[ValidationPoint]:
        return sorted(self.points, key=lambda p: p.relative_error, reverse=True)[:n]

    def render(self) -> str:
        lines = [
            f"validated {len(self.points)} points ({self.skipped_oom} OOM skipped)",
            f"mean relative error: {self.mean_relative_error:.2%}",
            f"max relative error:  {self.max_relative_error:.2%}",
        ]
        for p in self.worst(3):
            lines.append(
                f"  worst: {p.model}/{p.hardware}/{p.framework} "
                f"bs={p.batch_size} len={p.length}: "
                f"est {p.estimator_tput:,.0f} vs engine {p.engine_tput:,.0f} "
                f"({p.relative_error:.1%})"
            )
        return "\n".join(lines)


def cross_validate(
    num_points: int = 20,
    seed: int = 0,
    max_relative_error: float | None = None,
) -> ValidationSummary:
    """Sample random 7B-class configurations and compare both paths.

    Only in-capacity workloads are compared (the estimator's fractional
    waves intentionally approximate the engine's integer waves under
    memory pressure).  Raises AssertionError if ``max_relative_error`` is
    given and exceeded.
    """
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    rng = np.random.default_rng(seed)
    pairs = supported_pairs()
    points: list[ValidationPoint] = []
    skipped = 0
    attempts = 0
    while len(points) < num_points and attempts < num_points * 10:
        attempts += 1
        fw_name, hw_name = pairs[int(rng.integers(0, len(pairs)))]
        model_name = SEVEN_B_MODELS[int(rng.integers(0, len(SEVEN_B_MODELS)))]
        batch = int(rng.choice([1, 2, 4, 8, 16]))
        length = int(rng.choice([128, 256, 512, 1024]))
        try:
            dep = Deployment(
                get_model(model_name), get_hardware(hw_name), get_framework(fw_name)
            )
        except ValueError:
            skipped += 1
            continue
        config = GenerationConfig(length, length, batch)
        estimator = InferenceEstimator(dep)
        est_metrics = estimator.estimate(config)
        if est_metrics.oom or (
            est_metrics.effective_concurrency is not None
            and est_metrics.effective_concurrency < batch
        ):
            skipped += 1
            continue
        try:
            engine = ServingEngine(dep, max_concurrency=batch)
            result = engine.run(fixed_batch_trace(batch, length, length))
        except OutOfMemoryError:
            skipped += 1
            continue
        points.append(
            ValidationPoint(
                model=model_name,
                hardware=hw_name,
                framework=fw_name,
                batch_size=batch,
                length=length,
                estimator_tput=est_metrics.throughput_tokens_per_s,
                engine_tput=result.throughput_tokens_per_s,
            )
        )
    summary = ValidationSummary(points=tuple(points), skipped_oom=skipped)
    if max_relative_error is not None:
        assert summary.max_relative_error <= max_relative_error, summary.render()
    return summary
