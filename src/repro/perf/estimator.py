"""End-to-end inference estimation: the closed-form fast path.

:class:`InferenceEstimator` turns a :class:`~repro.perf.phases.Deployment`
plus a workload (:class:`~repro.core.request.GenerationConfig`) into the
paper's metrics (TTFT, ITL, throughput, power).  It layers on top of the
per-phase roofline:

* **memory-capacity feasibility** — weights + KV + workspace must fit the
  device group; otherwise OOM (Gaudi2 at batch 32/64, llama.cpp 70B on
  A100, Fig. 32).  :meth:`InferenceEstimator.capacity` reports the
  deployment's :class:`~repro.perf.capacity.Capacity`;
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
from repro.core.xp import FLOATS
from repro.perf.kernel import get_kernel
from repro.perf.phases import Deployment, phase_utilization, step_model

__all__ = ["InferenceEstimator", "CapacityReport", "phase_utilization"]


@dataclass(frozen=True)
class CapacityReport:
    """Memory-capacity accounting for one (deployment, workload) pair."""

    weight_bytes: float
    kv_allocated_per_sequence_bytes: float
    usable_bytes: float
    max_concurrency: int
    weights_fit: bool


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
        self._step_model = step_model(deployment)

    def capacity(self, config: GenerationConfig) -> CapacityReport:
        """The deployment's capacity model (:mod:`repro.perf.capacity`) at
        the workload's final context length."""
        cap = self.deployment.capacity
        final_ctx = config.total_tokens_per_sequence
        return CapacityReport(
            weight_bytes=cap.weight_bytes,
            kv_allocated_per_sequence_bytes=cap.kv_bytes_per_sequence(final_ctx),
            usable_bytes=cap.usable_bytes,
            max_concurrency=cap.max_concurrency(final_ctx),
            weights_fit=cap.weights_fit,
        )

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def _decode_total(
        self, batch_size: int, config: GenerationConfig
    ) -> tuple[LatencyBreakdown, LatencyBreakdown]:
        """(single representative step, whole decode phase) breakdowns:
        the step at the mean context times the step count (the midpoint
        rule), exact only while the phase stays between the roofline's
        breakpoints, the compute/memory crossover and a memory-tier spill.
        """
        steps = config.output_tokens - 1
        if steps == 0:
            zero = LatencyBreakdown()
            return zero, zero
        step = self.kernel.decode_cost(batch_size, config.midpoint_context).breakdown
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

        prefill = self.kernel.prefill_cost(effective, config.input_tokens).breakdown
        step, decode = self._decode_total(effective, config)
        e2e_one_wave = prefill.total_s + decode.total_s
        e2e = e2e_one_wave * waves

        power = self._step_model.average_power_w(FLOATS, prefill, decode)
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
