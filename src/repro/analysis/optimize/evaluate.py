"""Two-stage deployment evaluation: vectorized screening + DES refinement.

**Stage 1 (screening)** prices every configuration analytically: each
valid deployment-axis point gets one
:meth:`~repro.perf.kernel.StepCostKernel.evaluate_grid` call covering
the whole batch axis in a single vectorized pass, and each batch lane
becomes a :class:`ScreenedConfig` — steady-state latency/throughput from
the grid, fleet sizing from the closed-form
:func:`~repro.perf.multinode.replicas_for_rate`, cost-per-token from the
zoo's per-device hourly rates, joules-per-token from the roofline power
integral, and perplexity from :mod:`repro.models.quality`.  This is the
path that screens 10^4+ configurations in seconds (benchmarked by the
``optimize-paper-zoo`` workload in ``BENCHMARK.json``).

**Stage 2 (refinement)** re-evaluates the top frontier candidates
through the discrete-event :class:`~repro.cluster.ClusterCapacityPlanner`
— real queueing, router choice, per-request SLO attainment — and derives
autoscaler bounds from the resulting :class:`~repro.cluster.planner
.CapacityPlan` plus a parallelism-plan ranking for the winning device
budget.  Screening is optimistic about queueing (it prices steady-state
saturation); refinement is where the optimistic candidates pay for their
tails.  The accuracy trade-off is documented in ``docs/optimize.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.cluster.planner import CapacityPlan, ClusterCapacityPlanner
from repro.cluster.router import get_router
from repro.control.autoscale import derive_autoscaler_bounds
from repro.core import jsonio
from repro.core.request import GenerationConfig
from repro.experiments.spec import QUANT_SCHEMES
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.quality import estimate_perplexity
from repro.models.zoo import get_model
from repro.perf.kernel import get_kernel
from repro.perf.multinode import replicas_for_rate
from repro.perf.planner import PlanScore, rank_plans
from repro.analysis.optimize.space import SearchSpace, build_deployment

__all__ = [
    "OBJECTIVES",
    "RefinedCandidate",
    "ScreenedConfig",
    "ScreeningStats",
    "best_config",
    "refine",
    "screen",
]

#: Objective label -> ScreenedConfig attribute holding the value to
#: minimize.  ``joules_per_token`` is the TokenPowerBench name for the
#: energy objective; both labels address the same column.
OBJECTIVES: dict[str, str] = {
    "cost_per_token": "cost_per_token_usd",
    "energy_per_token": "energy_per_token_j",
    "joules_per_token": "energy_per_token_j",
}


@dataclass(frozen=True)
class ScreenedConfig:
    """One fully priced configuration (a deployment at one batch size).

    ``replicas`` is the closed-form fleet size absorbing the space's
    ``target_rate_rps``; ``feasible`` is False when that exceeds
    ``max_replicas`` (cost stays finite — the price of the capped fleet
    is still informative, the flag carries the verdict).  OOM lanes keep
    the estimator's sentinels (inf latency, zero throughput) and are
    excluded from every frontier.
    """

    model: str
    hardware: str
    framework: str
    quant: str
    tp: int
    batch_size: int
    num_devices: int
    replicas: int
    feasible: bool
    oom: bool
    slo_ok: bool
    ttft_s: float
    itl_s: float
    e2e_s: float
    per_replica_rps: float
    throughput_tokens_per_s: float
    average_power_w: float
    cost_per_token_usd: float
    energy_per_token_j: float
    perplexity: float
    slo_headroom: float

    @property
    def key(self) -> str:
        return (
            f"{self.model}/{self.hardware}/{self.framework}/"
            f"{self.quant}/tp{self.tp}/bs{self.batch_size}"
        )

    @property
    def deployment_key(self) -> str:
        return (
            f"{self.model}/{self.hardware}/{self.framework}/"
            f"{self.quant}/tp{self.tp}"
        )

    to_json_dict = jsonio.to_json_dict
    from_json_dict = classmethod(jsonio.from_json_dict)


@dataclass(frozen=True)
class ScreeningStats:
    """Bookkeeping for one screening pass."""

    configs_nominal: int  # full cross product, before compatibility skips
    configs_screened: int  # lanes actually priced through the kernel
    skipped_invalid: int  # configs rejected by deployment validation
    oom_lanes: int

    to_json_dict = jsonio.to_json_dict


def screen(space: SearchSpace) -> tuple[list[ScreenedConfig], ScreeningStats]:
    """Stage 1: price every valid configuration analytically.

    One ``evaluate_grid`` call per deployment-axis point covers the
    whole batch axis; ordering follows the space's enumeration order, so
    the returned list (and everything derived from it) is deterministic.
    """
    candidates, skipped_combos = space.enumerate_deployments()
    inp, out = space.input_tokens, space.output_tokens
    tokens_per_request = float(inp + out)
    target = space.target_rate_rps
    slo = space.slo

    configs: list[ScreenedConfig] = []
    oom_lanes = 0
    for cand in candidates:
        dep = cand.deployment
        grid = get_kernel(dep).evaluate_grid(space.batch_sizes, (inp,), (out,))
        hourly = dep.hardware.hourly_cost * dep.num_devices
        perplexity = estimate_perplexity(
            dep.model, precision=QUANT_SCHEMES[cand.quant].weight_precision
        )
        for b, batch in enumerate(space.batch_sizes):
            oom = bool(grid.oom[b, 0, 0])
            ttft = float(grid.ttft_s[b, 0, 0])
            itl = float(grid.itl_s[b, 0, 0])
            e2e = float(grid.end_to_end_s[b, 0, 0])
            throughput = float(grid.throughput_tokens_per_s[b, 0, 0])
            power = float(grid.average_power_w[b, 0, 0])
            if oom:
                oom_lanes += 1
                per_replica_rps = 0.0
                replicas = 0
                feasible = False
                slo_ok = False
                cost = float("inf")
                energy = float("inf")
                headroom = float("-inf")
            else:
                per_replica_rps = batch / e2e
                replicas = replicas_for_rate(target, per_replica_rps)
                feasible = replicas <= space.max_replicas
                # Steady-state latency proxy for per-request SLO checks;
                # the DES refinement stage replaces this with measured
                # per-request attainment under real queueing.
                margins = [1.0 - ttft / slo.ttft_s, 1.0 - itl / slo.itl_s]
                if slo.e2e_s is not None:
                    margins.append(1.0 - e2e / slo.e2e_s)
                headroom = min(margins)
                slo_ok = headroom >= 0.0
                # Provisioned fleet cost over delivered tokens: replicas
                # are billed whole (idle headroom included), tokens flow
                # at the planned rate.
                capped = min(replicas, space.max_replicas)
                cost = (capped * hourly / 3600.0) / (
                    target * tokens_per_request
                )
                # Marginal busy-device energy (J/token), the profiler's
                # joules_per_token convention.
                energy = power / throughput
            configs.append(
                ScreenedConfig(
                    model=cand.model,
                    hardware=cand.hardware,
                    framework=cand.framework,
                    quant=cand.quant,
                    tp=cand.tp,
                    batch_size=batch,
                    num_devices=dep.num_devices,
                    replicas=replicas,
                    feasible=feasible,
                    oom=oom,
                    slo_ok=slo_ok,
                    ttft_s=ttft,
                    itl_s=itl,
                    e2e_s=e2e,
                    per_replica_rps=per_replica_rps,
                    throughput_tokens_per_s=throughput,
                    average_power_w=power,
                    cost_per_token_usd=cost,
                    energy_per_token_j=energy,
                    perplexity=perplexity,
                    slo_headroom=headroom,
                )
            )
    stats = ScreeningStats(
        configs_nominal=space.size,
        configs_screened=len(configs),
        skipped_invalid=skipped_combos * len(space.batch_sizes),
        oom_lanes=oom_lanes,
    )
    return configs, stats


def best_config(
    configs: list[ScreenedConfig], objective: str
) -> ScreenedConfig | None:
    """Minimum-objective config among SLO-meeting feasible lanes.

    Ties break on the config key, which is unique per lane — the
    argument order never decides the winner.
    """
    try:
        attr = OBJECTIVES[objective]
    except KeyError:
        known = ", ".join(sorted(OBJECTIVES))
        raise KeyError(f"unknown objective {objective!r} (known: {known})") from None
    eligible = [
        c for c in configs if not c.oom and c.feasible and c.slo_ok
    ]
    if not eligible:
        return None
    return min(eligible, key=lambda c: (getattr(c, attr), c.key))


@dataclass(frozen=True)
class RefinedCandidate:
    """Stage-2 verdict for one frontier candidate under one router."""

    config: ScreenedConfig
    router: str
    capacity_plan: CapacityPlan
    autoscaler_min_replicas: int | None  # None when the plan is infeasible
    autoscaler_max_replicas: int | None
    plan_ranking: tuple[PlanScore, ...]

    to_json_dict = jsonio.to_json_dict


def refine(
    space: SearchSpace,
    configs: list[ScreenedConfig],
    top_k: int,
    objective: str = "cost_per_token",
    seed: int = 0,
    num_requests: int = 24,
    plan_ranking_depth: int = 4,
) -> list[RefinedCandidate]:
    """Stage 2: discrete-event capacity planning for top candidates.

    Takes the ``top_k`` best *distinct deployments* (cheapest batch lane
    each) by the screening objective, sizes each through the
    :class:`ClusterCapacityPlanner` once per router in the space, derives
    :class:`~repro.control.autoscale` bounds from feasible plans, and
    attaches the device-budget parallelism ranking.  Everything is keyed
    off ``seed``, so refinement output is as deterministic as screening.
    """
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    attr = OBJECTIVES[objective]
    eligible = sorted(
        (c for c in configs if not c.oom and c.feasible and c.slo_ok),
        key=lambda c: (getattr(c, attr), c.key),
    )
    chosen: list[ScreenedConfig] = []
    seen: set[str] = set()
    for config in eligible:
        if len(chosen) >= top_k:
            break
        if config.deployment_key in seen:
            continue
        seen.add(config.deployment_key)
        chosen.append(config)

    refined: list[RefinedCandidate] = []
    for config in chosen:
        dep = build_deployment(
            config.model, config.hardware, config.framework, config.quant, config.tp
        )
        workload = GenerationConfig(
            space.input_tokens, space.output_tokens, config.batch_size
        )
        ranking = tuple(
            rank_plans(
                get_model(config.model),
                get_hardware(config.hardware),
                get_framework(config.framework),
                workload,
                num_devices=config.tp,
            )[:plan_ranking_depth]
        )
        for router in space.routers:
            planner = ClusterCapacityPlanner(
                dep,
                slo=space.slo,
                router_factory=partial(get_router, router, seed=seed),
                num_requests=num_requests,
                mean_input_tokens=space.input_tokens,
                mean_output_tokens=space.output_tokens,
                max_concurrency=config.batch_size,
                seed=seed,
            )
            plan = planner.plan(space.target_rate_rps, space.max_replicas)
            if plan.feasible:
                lo, hi = derive_autoscaler_bounds(plan)
            else:
                lo = hi = None
            refined.append(
                RefinedCandidate(
                    config=config,
                    router=router,
                    capacity_plan=plan,
                    autoscaler_min_replicas=lo,
                    autoscaler_max_replicas=hi,
                    plan_ranking=ranking,
                )
            )
    return refined
