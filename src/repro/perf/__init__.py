"""Analytical performance model: phases, parallelism, quantization, SD."""

from repro.perf.attention import (
    gqa_read_multiplier,
    kv_time_multiplier,
    paged_block_multiplier,
)
from repro.perf.estimator import CapacityReport, InferenceEstimator
from repro.perf.kernel import (
    DirectStepCost,
    StepCostKernel,
    SweepGrid,
    clear_kernel_cache,
    get_kernel,
)
from repro.perf.parallelism import (
    CommCosts,
    ParallelismPlan,
    comm_costs_per_forward,
    pipeline_factor,
)
from repro.perf.multinode import INFINIBAND_NDR, ClusterDeployment, ClusterEstimate
from repro.perf.planner import PlanScore, best_plan, enumerate_plans, rank_plans
from repro.perf.phases import (
    Deployment,
    StepCoeffs,
    StepCost,
    StepModel,
    decode_step_cost,
    forward_flops,
    moe_expected_active_experts,
    prefill_cost,
    step_weight_bytes,
)
from repro.perf.quantization import (
    FP8_SCHEME,
    FP16_SCHEME,
    INT8_SCHEME,
    QuantizationScheme,
)
from repro.perf.speculative import (
    SpeculativeConfig,
    acceptance_rate,
    expected_tokens_per_iteration,
    speculative_speedup,
)

__all__ = [
    "gqa_read_multiplier",
    "kv_time_multiplier",
    "paged_block_multiplier",
    "CapacityReport",
    "InferenceEstimator",
    "DirectStepCost",
    "StepCostKernel",
    "SweepGrid",
    "clear_kernel_cache",
    "get_kernel",
    "CommCosts",
    "ParallelismPlan",
    "comm_costs_per_forward",
    "pipeline_factor",
    "INFINIBAND_NDR",
    "ClusterDeployment",
    "ClusterEstimate",
    "PlanScore",
    "best_plan",
    "enumerate_plans",
    "rank_plans",
    "Deployment",
    "StepCoeffs",
    "StepCost",
    "StepModel",
    "decode_step_cost",
    "forward_flops",
    "moe_expected_active_experts",
    "prefill_cost",
    "step_weight_bytes",
    "FP8_SCHEME",
    "FP16_SCHEME",
    "INT8_SCHEME",
    "QuantizationScheme",
    "SpeculativeConfig",
    "acceptance_rate",
    "expected_tokens_per_iteration",
    "speculative_speedup",
]
