"""End-to-end inference estimation: the closed-form fast path.

:class:`InferenceEstimator` turns a :class:`~repro.perf.phases.Deployment`
plus a workload (:class:`~repro.core.request.GenerationConfig`) into the
paper's metrics (TTFT, ITL, throughput, power).  It layers on top of the
per-phase roofline:

* **memory-capacity feasibility** — weights + KV + workspace must fit the
  device group; otherwise OOM (Gaudi2 at batch 32/64, llama.cpp 70B on
  A100, Fig. 32);
* **concurrency waves** — when the nominal batch's KV does not fit, a
  continuous-batching scheduler keeps only ``C_max`` sequences resident and
  refills as they finish, so throughput saturates at ``C_max`` (the
  mechanism behind H100's 39x vs A100's 3x batch scaling on LLaMA-3-70B,
  Section V-1); static-batching frameworks run integer waves instead;
* **power integration** — utilization-weighted average over the prefill
  and decode phases.

The discrete-event engine (:mod:`repro.runtime.engine`) reproduces the same
quantities by simulation; tests cross-check the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import InferenceMetrics, LatencyBreakdown
from repro.core.request import GenerationConfig
from repro.hardware.power import PowerModel
from repro.models.kvcache import kv_bytes_per_token
from repro.perf.kernel import get_kernel
from repro.perf.phases import Deployment

__all__ = ["InferenceEstimator", "CapacityReport", "phase_utilization"]


def phase_utilization(breakdown: LatencyBreakdown, power_intensity: float = 1.0) -> float:
    """Roofline occupancy of a phase in [0, 1], for the power model.

    Compute-bound phases run near their compute fraction; memory-bound
    phases still draw substantial dynamic power (HBM + data movement),
    captured by the 0.70 weighting on the memory fraction.
    """
    if breakdown.total_s <= 0:
        return 0.0
    compute_frac = min(1.0, breakdown.compute_s / breakdown.total_s)
    memory = (
        breakdown.weight_memory_s
        + breakdown.kv_memory_s
        + breakdown.activation_memory_s
    )
    memory_frac = min(1.0, memory / breakdown.total_s)
    util = max(compute_frac, 0.70 * memory_frac) * power_intensity
    return min(1.0, max(0.05, util))


@dataclass(frozen=True)
class CapacityReport:
    """Memory-capacity accounting for one (deployment, workload) pair."""

    weight_bytes: float
    kv_allocated_per_sequence_bytes: float
    usable_bytes: float
    max_concurrency: int

    @property
    def weights_fit(self) -> bool:
        return self.weight_bytes <= self.usable_bytes


class InferenceEstimator:
    """Closed-form estimator for one deployment.

    ``kernel`` supplies the per-phase step costs; the default is the
    deployment's shared :class:`~repro.perf.kernel.StepCostKernel`, so
    repeated estimates (sweeps, peak search) reuse memoized coefficients.
    Pass :class:`~repro.perf.kernel.DirectStepCost` to force un-memoized
    ``phases.py`` evaluation.
    """

    def __init__(self, deployment: Deployment, kernel=None) -> None:
        self.deployment = deployment
        self.kernel = kernel if kernel is not None else get_kernel(deployment)
        # Pure functions of the frozen deployment/workload shape, cached
        # so per-estimate cost is dominated by the step model, not by
        # re-deriving constants (see docs/performance.md).
        self._weight_footprint: float | None = None
        self._capacity_by_ctx: dict[int, CapacityReport] = {}

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    def weight_footprint_bytes(self) -> float:
        """Resident runtime bytes: weights (MoE keeps *all* experts
        resident) inflated by the framework's buffer/workspace overhead.

        Pure function of the frozen deployment, computed once per
        estimator."""
        if self._weight_footprint is None:
            dep = self.deployment
            raw = dep.model.total_params * dep.quant.weight_bytes_per_param()
            self._weight_footprint = raw * dep.framework.memory_overhead_factor
        return self._weight_footprint

    def kv_allocated_per_sequence(self, config: GenerationConfig) -> float:
        """KV + workspace bytes reserved for one sequence at full length.

        Paged allocators reserve whole blocks up to the final context;
        contiguous allocators (llama.cpp, Gaudi2 ports, SambaFlow) reserve
        the full context up front.  The platform's workspace factor models
        per-sequence scratch (attention workspaces, static-shape padding).
        """
        dep = self.deployment
        final_ctx = config.total_tokens_per_sequence
        allocated_tokens = dep.kv_spec.allocated_tokens(final_ctx, final_ctx)
        kv = allocated_tokens * kv_bytes_per_token(dep.model, dep.kv_spec.precision)
        return kv * (1.0 + dep.hardware.workspace_overhead_factor)

    def capacity(self, config: GenerationConfig) -> CapacityReport:
        # Capacity depends on the workload only through the final context
        # length, so reports are cached per total-tokens value.
        final_ctx = config.total_tokens_per_sequence
        cached = self._capacity_by_ctx.get(final_ctx)
        if cached is not None:
            return cached
        dep = self.deployment
        mem = dep.memory_model()
        weights = self.weight_footprint_bytes()
        per_seq = self.kv_allocated_per_sequence(config)
        budget = mem.kv_budget_bytes(weights, 0.0)
        report = CapacityReport(
            weight_bytes=weights,
            kv_allocated_per_sequence_bytes=per_seq,
            usable_bytes=mem.usable_bytes,
            max_concurrency=int(budget // per_seq),
        )
        self._capacity_by_ctx[final_ctx] = report
        return report

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def _decode_total(
        self, batch_size: int, config: GenerationConfig
    ) -> tuple[LatencyBreakdown, LatencyBreakdown]:
        """(single representative step, whole decode phase) breakdowns.

        The per-step cost is affine in context length, so evaluating at the
        mean context and multiplying by the step count is exact.
        """
        steps = config.output_tokens - 1
        if steps == 0:
            zero = LatencyBreakdown()
            return zero, zero
        mean_ctx = config.input_tokens + (config.output_tokens + 1) / 2.0
        step = self.kernel.decode_step(batch_size, max(1, round(mean_ctx)))
        return step, step.scaled(float(steps))

    def estimate(self, config: GenerationConfig) -> InferenceMetrics:
        """Full metrics for a workload, including OOM and wave behaviour."""
        dep = self.deployment
        cap = self.capacity(config)
        if not cap.weights_fit or cap.max_concurrency < 1:
            return InferenceMetrics.out_of_memory(
                config.batch_size, config.input_tokens, config.output_tokens
            )

        batch = config.batch_size
        if batch <= cap.max_concurrency:
            effective = batch
            waves = 1.0
        elif dep.framework.continuous_batching:
            # The scheduler keeps C_max sequences resident and refills as
            # they finish; aggregate time scales by the (fractional) number
            # of refills.
            effective = cap.max_concurrency
            waves = batch / effective
        else:
            # Static batching cannot split a batch it cannot hold.
            return InferenceMetrics.out_of_memory(
                config.batch_size, config.input_tokens, config.output_tokens
            )

        prefill = self.kernel.prefill(effective, config.input_tokens)
        step, decode = self._decode_total(effective, config)
        e2e_one_wave = prefill.total_s + decode.total_s
        e2e = e2e_one_wave * waves

        power = self._average_power(prefill, decode)
        return InferenceMetrics(
            batch_size=batch,
            input_tokens=config.input_tokens,
            output_tokens=config.output_tokens,
            ttft_s=prefill.total_s,
            end_to_end_latency_s=e2e,
            average_power_w=power,
            prefill_breakdown=prefill,
            decode_breakdown=decode,
            effective_concurrency=float(effective),
        )

    def estimate_ttft(self, config: GenerationConfig) -> float:
        """TTFT per the paper's method: max output of one token."""
        one_token = GenerationConfig(config.input_tokens, 1, config.batch_size)
        return self.estimate(one_token).ttft_s

    def estimate_itl(self, config: GenerationConfig) -> float:
        return self.estimate(config).itl_s

    def throughput(self, config: GenerationConfig) -> float:
        """Eq. 2 throughput in tokens/s (0.0 on OOM)."""
        return self.estimate(config).throughput_tokens_per_s

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------

    def _phase_utilization(self, breakdown: LatencyBreakdown) -> float:
        """Roofline occupancy of a phase, for the power model."""
        return phase_utilization(
            breakdown, self.deployment.framework.power_intensity
        )

    def _average_power(
        self, prefill: LatencyBreakdown, decode: LatencyBreakdown
    ) -> float:
        model = PowerModel(self.deployment.hardware, self.deployment.num_devices)
        durations: list[float] = []
        utils: list[float] = []
        for phase in (prefill, decode):
            if phase.total_s > 0:
                durations.append(phase.total_s)
                utils.append(self._phase_utilization(phase))
        if not durations:
            return model.group_power_w(0.05)
        return model.average_power_w(durations, utils)
