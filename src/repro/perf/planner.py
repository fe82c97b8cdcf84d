"""Automatic parallelism planning.

Fig. 5's conclusion — "TP is effective [within a node] due to more device
utilization and less communication overhead" — as an algorithm: enumerate
every valid (TP, PP, EP) decomposition for a device budget, score each with
the estimator, and return the ranking.  Useful both as a library feature
(deployment autotuning) and as a consistency check that the simulator's
preferences match the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.jsonio import from_json_float, json_float
from repro.core.request import GenerationConfig
from repro.frameworks.base import FrameworkProfile
from repro.hardware.spec import HardwareSpec
from repro.models.config import ModelConfig
from repro.perf.estimator import InferenceEstimator
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import Deployment

__all__ = ["PlanScore", "enumerate_plans", "rank_plans", "best_plan"]


@dataclass(frozen=True)
class PlanScore:
    """One candidate plan and its predicted performance."""

    plan: ParallelismPlan
    throughput_tokens_per_s: float
    ttft_s: float
    oom: bool

    @property
    def feasible(self) -> bool:
        return not self.oom and self.throughput_tokens_per_s > 0

    def to_json_dict(self) -> dict[str, object]:
        """Deterministic JSON view (:func:`~repro.core.jsonio.json_float`).

        Optimizer artifacts embed plan rankings losslessly; the OOM sentinel
        ``ttft_s=inf`` serialises as ``null`` (the ``oom`` flag carries
        the information).
        """
        return {
            "plan": {"tp": self.plan.tp, "pp": self.plan.pp, "ep": self.plan.ep},
            "throughput_tokens_per_s": json_float(self.throughput_tokens_per_s),
            "ttft_s": json_float(self.ttft_s),
            "oom": self.oom,
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, object]) -> "PlanScore":
        plan = payload["plan"]
        return cls(
            plan=ParallelismPlan(
                tp=int(plan["tp"]),  # type: ignore[index]
                pp=int(plan["pp"]),  # type: ignore[index]
                ep=int(plan["ep"]),  # type: ignore[index]
            ),
            throughput_tokens_per_s=from_json_float(
                payload["throughput_tokens_per_s"]
            ),
            ttft_s=from_json_float(payload["ttft_s"]),
            oom=bool(payload["oom"]),
        )


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def enumerate_plans(
    model: ModelConfig, hardware: HardwareSpec, num_devices: int
) -> list[ParallelismPlan]:
    """All valid (tp, pp, ep) plans using exactly ``num_devices`` devices."""
    if not 1 <= num_devices <= hardware.devices_per_node:
        raise ValueError(
            f"num_devices must be in [1, {hardware.devices_per_node}]"
        )
    plans: list[ParallelismPlan] = []
    for tp in _divisors(num_devices):
        pp = num_devices // tp
        ep_options = [1]
        if model.is_moe:
            ep_options = [
                ep
                for ep in _divisors(num_devices)
                if ep <= model.num_experts
            ]
        for ep in ep_options:
            plan = ParallelismPlan(tp=tp, pp=pp, ep=ep)
            try:
                plan.validate_for(model, hardware)
            except ValueError:
                continue
            plans.append(plan)
    return plans


def rank_plans(
    model: ModelConfig,
    hardware: HardwareSpec,
    framework: FrameworkProfile,
    workload: GenerationConfig,
    num_devices: int,
) -> list[PlanScore]:
    """Score every valid plan, best throughput first.

    Each candidate deployment is scored through its shared
    :class:`~repro.perf.kernel.StepCostKernel` (the estimator's default),
    so re-ranking the same plans — e.g. across workloads in an autotuning
    sweep — reuses memoized step costs instead of rebuilding rooflines.
    """
    scores: list[PlanScore] = []
    for plan in enumerate_plans(model, hardware, num_devices):
        try:
            dep = Deployment(model, hardware, framework, plan=plan)
        except ValueError:
            continue
        metrics = InferenceEstimator(dep).estimate(workload)
        scores.append(
            PlanScore(
                plan=plan,
                throughput_tokens_per_s=metrics.throughput_tokens_per_s,
                ttft_s=metrics.ttft_s if not metrics.oom else float("inf"),
                oom=metrics.oom,
            )
        )
    scores.sort(key=lambda s: s.throughput_tokens_per_s, reverse=True)
    return scores


def best_plan(
    model: ModelConfig,
    hardware: HardwareSpec,
    framework: FrameworkProfile,
    workload: GenerationConfig,
    num_devices: int,
) -> PlanScore:
    """The throughput-optimal plan; raises if nothing is feasible."""
    ranking = rank_plans(model, hardware, framework, workload, num_devices)
    feasible = [s for s in ranking if s.feasible]
    if not feasible:
        raise RuntimeError(
            f"no feasible plan for {model.name} on {num_devices}x"
            f"{hardware.name} under {framework.name}"
        )
    return feasible[0]
