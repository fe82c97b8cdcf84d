"""Bottleneck attribution: *why* is a configuration as fast as it is?

The paper's Insights section (VII) reasons about bottlenecks — KV-cache
bandwidth, compute saturation, communication, host overhead.  This module
makes that reasoning a first-class query: decompose a phase's latency into
mechanism shares, name the dominant one, and report operational intensity
against the hardware's roofline ridge point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.metrics import CostComponents, LatencyBreakdown
from repro.core.request import GenerationConfig
from repro.perf.estimator import InferenceEstimator
from repro.perf.phases import Deployment, decode_step_cost

__all__ = ["Bottleneck", "PhaseAttribution", "BottleneckReport", "analyze"]


class Bottleneck(str, enum.Enum):
    """Dominant mechanism of a phase."""

    COMPUTE = "compute"
    WEIGHT_BANDWIDTH = "weight-bandwidth"
    KV_BANDWIDTH = "kv-bandwidth"
    COMMUNICATION = "communication"
    OVERHEAD = "overhead"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class PhaseAttribution:
    """Mechanism shares of one phase (fractions of total time, sum <= ~1
    plus overlap slack)."""

    phase: str
    compute: float
    weight_bandwidth: float
    kv_bandwidth: float
    activation_bandwidth: float
    communication: float
    overhead: float

    @property
    def dominant(self) -> Bottleneck:
        shares = {
            Bottleneck.COMPUTE: self.compute,
            Bottleneck.WEIGHT_BANDWIDTH: self.weight_bandwidth,
            Bottleneck.KV_BANDWIDTH: self.kv_bandwidth + self.activation_bandwidth,
            Bottleneck.COMMUNICATION: self.communication,
            Bottleneck.OVERHEAD: self.overhead,
        }
        return max(shares, key=shares.get)  # type: ignore[arg-type]

    @classmethod
    def from_breakdown(cls, phase: str, bd: LatencyBreakdown) -> "PhaseAttribution":
        if bd.total_s <= 0:
            raise ValueError(f"{phase}: empty breakdown")
        t = bd.total_s
        return cls(
            phase=phase,
            compute=bd.compute_s / t,
            weight_bandwidth=bd.weight_memory_s / t,
            kv_bandwidth=bd.kv_memory_s / t,
            activation_bandwidth=bd.activation_memory_s / t,
            communication=bd.communication_s / t,
            overhead=bd.overhead_s / t,
        )

    @classmethod
    def from_components(
        cls, phase: str, components: CostComponents
    ) -> "PhaseAttribution":
        """Attribution from an exact-sum runtime partition.

        The runtime profiler's :class:`~repro.core.metrics.CostComponents`
        scales every raw leg by the same factor, so these fractions sum to
        1 and share the *ordering* of :meth:`from_breakdown`'s — the two
        paths always agree on :attr:`dominant` (the consistency-bridge
        test in ``tests/test_profiler.py`` enforces this).
        """
        if components.total_s <= 0:
            raise ValueError(f"{phase}: empty component partition")
        shares = components.fractions()
        return cls(
            phase=phase,
            compute=shares["compute_s"],
            weight_bandwidth=shares["weight_s"],
            kv_bandwidth=shares["kv_s"],
            activation_bandwidth=shares["activation_s"],
            communication=shares["communication_s"],
            overhead=shares["overhead_s"],
        )


@dataclass(frozen=True)
class BottleneckReport:
    """Full attribution for one (deployment, workload) point."""

    prefill: PhaseAttribution
    decode: PhaseAttribution
    decode_share_of_e2e: float
    operational_intensity_decode: float  # FLOPs per byte moved
    ridge_point: float  # hardware FLOPs/byte at which compute == memory

    @property
    def end_to_end_bottleneck(self) -> Bottleneck:
        """Dominant mechanism of the dominant phase."""
        if self.decode_share_of_e2e >= 0.5:
            return self.decode.dominant
        return self.prefill.dominant

    @property
    def decode_is_memory_bound(self) -> bool:
        return self.operational_intensity_decode < self.ridge_point

    def render(self) -> str:
        lines = [
            f"end-to-end bottleneck: {self.end_to_end_bottleneck} "
            f"(decode is {self.decode_share_of_e2e:.0%} of e2e)",
            f"decode operational intensity: "
            f"{self.operational_intensity_decode:.1f} FLOP/B "
            f"(ridge {self.ridge_point:.0f} FLOP/B -> "
            f"{'memory' if self.decode_is_memory_bound else 'compute'}-bound)",
        ]
        for attribution in (self.prefill, self.decode):
            lines.append(
                f"{attribution.phase}: compute {attribution.compute:.0%}, "
                f"weights {attribution.weight_bandwidth:.0%}, "
                f"kv {attribution.kv_bandwidth:.0%}, "
                f"comm {attribution.communication:.0%}, "
                f"overhead {attribution.overhead:.0%} "
                f"-> {attribution.dominant}"
            )
        return "\n".join(lines)


def analyze(dep: Deployment, config: GenerationConfig) -> BottleneckReport:
    """Attribute a benchmark point's latency to mechanisms."""
    estimator = InferenceEstimator(dep)
    metrics = estimator.estimate(config)
    if metrics.oom:
        raise ValueError("configuration does not fit in memory")
    prefill_bd = metrics.prefill_breakdown
    decode_bd = metrics.decode_breakdown
    assert prefill_bd is not None
    if decode_bd is None or decode_bd.total_s == 0:
        raise ValueError("workload has no decode phase (single output token)")

    # Decode operational intensity: FLOPs per modeled byte in one step, as
    # the step model prices it.
    batch = int(metrics.effective_concurrency or config.batch_size)
    step = decode_step_cost(dep, batch, config.midpoint_context)
    intensity = step.flops / step.bytes_moved

    ridge = (
        dep.hardware.peak_flops(dep.quant.activation_compute_precision(dep.hardware))
        * dep.hardware.mfu_ceiling
        / dep.hardware.effective_bandwidth_bytes_s
    )
    return BottleneckReport(
        prefill=PhaseAttribution.from_breakdown("prefill", prefill_bd),
        decode=PhaseAttribution.from_breakdown("decode", decode_bd),
        decode_share_of_e2e=decode_bd.total_s
        / (prefill_bd.total_s + decode_bd.total_s),
        operational_intensity_decode=intensity,
        ridge_point=ridge,
    )
