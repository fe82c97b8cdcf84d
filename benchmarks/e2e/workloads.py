"""The five end-to-end workloads: inputs from a seed, one run, output checks.

Every workload goes through the public API only.  ``prepare`` builds the
inputs and constructs the simulator (or search space) — that is set-up;
``Prepared.execute`` makes the first call into the program and ends once
the result JSON is serialized — that is the timed run; ``Prepared.check``
then verifies the outputs, outside the timed region.

Cluster workloads share one deployment (LLaMA-3-8B / A100 / vLLM) and one
engine shape (``max_concurrency=32``, ``prefix_cache_slots=8``).  Their
arrival schedules are open-loop in simulated time and fixed by the seed;
on the host each run is a single client, so there is no generator lateness.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field, replace

MODEL = "LLaMA-3-8B"
HARDWARE = "A100"
FRAMEWORK = "vLLM"
MAX_CONCURRENCY = 32
PREFIX_CACHE_SLOTS = 8


@dataclass
class Verdict:
    """Result of the output checks on one run."""

    failed: int  # failed operations
    errors: list[str]
    counts: dict[str, float] = field(default_factory=dict)


@dataclass
class Prepared:
    """A workload whose inputs are built and whose program is constructed."""

    ops: int  # operations the run attempts
    execute: Callable[[], tuple[str, object]]  # -> (result JSON, result)
    check: Callable[[object], Verdict]


@dataclass(frozen=True)
class ClusterWorkload:
    """A scenario trace routed across a fleet by ``ClusterSimulator``."""

    name: str
    scenario: str
    sessions: int
    tiny_sessions: int
    replicas: int
    router: str
    base_rps: float | None = None  # overrides a flash-crowd's base rate
    observed: bool = False  # TelemetryHub with tenant SLOs, profiled replicas

    def prepare(self, seed: int, tiny: bool = False) -> Prepared:
        from repro.bench import BenchmarkRunner
        from repro.cluster import ClusterSimulator, get_router
        from repro.obs import TelemetryHub
        from repro.scenarios import get_scenario

        scenario = get_scenario(self.scenario).with_sessions(
            self.tiny_sessions if tiny else self.sessions
        )
        if self.base_rps is not None:
            scenario = replace(
                scenario, arrival=replace(scenario.arrival, base_rps=self.base_rps)
            )
        trace = scenario.build(seed)
        tenant_slos = scenario.tenant_slos() or None
        span = trace[-1].arrival_time - trace[0].arrival_time
        offered_rps = len(trace) / span if span > 0 else float(len(trace))
        deployment = BenchmarkRunner(use_engine=True).deployment(
            MODEL, HARDWARE, FRAMEWORK
        )
        simulator = ClusterSimulator(
            deployment,
            self.replicas,
            router=get_router(self.router, seed=seed),
            max_concurrency=MAX_CONCURRENCY,
            prefix_cache_slots=PREFIX_CACHE_SLOTS,
            profiled=self.observed,
            telemetry=TelemetryHub(tenant_slos=tenant_slos) if self.observed else None,
        )

        def execute() -> tuple[str, object]:
            result = simulator.run(trace)
            load = result.load_report(offered_rps, tenant_slos=tenant_slos)
            payload = json.dumps(
                {"cluster": result.to_json_dict(), "load": load.to_json_dict()},
                sort_keys=True,
            )
            return payload, result

        return Prepared(len(trace), execute, lambda result: check_cluster(trace, result))


def check_cluster(trace: list, result) -> Verdict:
    """Conservation checks on a cluster result.

    A request that does not end in exactly one FINISHED state with ordered
    timestamps fails on its own; a broken fleet-wide law fails every
    request of the run.
    """
    from repro.core.request import RequestState

    bad = 0
    for r in result.requests:
        ok = (
            r.state == RequestState.FINISHED
            and r.generated_tokens == r.output_tokens
            and r.finish_time is not None
            and r.admit_time is not None
            and r.first_token_time is not None
            and r.arrival_time <= r.admit_time <= r.first_token_time <= r.finish_time
        )
        bad += not ok
    errors = []
    if len(result.requests) != len(trace):
        errors.append(f"result holds {len(result.requests)} of {len(trace)} requests")
    served = sum(rep.requests_served for rep in result.replicas)
    if served != len(trace):
        errors.append(f"replicas served {served} requests, trace has {len(trace)}")
    overbusy = [rep.name for rep in result.replicas if rep.busy_s > result.makespan_s]
    if overbusy:
        errors.append(f"busy_s exceeds the makespan on {', '.join(overbusy)}")
    failed = len(trace) if errors else bad
    if bad:
        errors.append(
            f"{bad} requests lack one FINISHED terminal state or ordered timestamps"
        )
    reports = [rep.result for rep in result.replicas]
    counts = {
        "requests": len(trace),
        "iterations": sum(rep.iterations for rep in reports),
        "decode_steps": sum(rep.decode_steps for rep in reports),
        "preemptions": sum(rep.scheduler_stats.preemptions for rep in reports),
        "prefix_hits": result.prefix_hits,
        "prefix_requests": sum(r.prefix_id is not None for r in trace),
    }
    return Verdict(failed, errors, counts)


# The paper's model families and framework set over the whole hardware zoo.
PAPER_MODELS = (
    "LLaMA-2-7B",
    "LLaMA-3-8B",
    "Mistral-7B",
    "Qwen2-7B",
    "LLaMA-2-70B",
    "LLaMA-3-70B",
    "Qwen2-72B",
)
PAPER_FRAMEWORKS = ("vLLM", "TRT-LLM", "DeepSpeed-MII")

# Frontier objective vectors (minimization), restated from the optimizer's
# documented frontier definitions so the check does not trust its code.
FRONTIER_OBJECTIVES = {
    "cost_vs_slo": lambda c: (c.cost_per_token_usd, -c.slo_headroom),
    "energy_vs_latency": lambda c: (c.energy_per_token_j, c.e2e_s),
    "throughput_vs_perplexity": lambda c: (-c.throughput_tokens_per_s, c.perplexity),
}


def _dominates(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


@dataclass(frozen=True)
class OptimizeWorkload:
    """Analytic ``optimize(space)`` over the paper's configuration matrix.

    The space does not depend on the seed; the seed only lands in the
    report, as ``optimize(seed=...)`` records it.
    """

    name: str
    screened: int  # configs the full space prices
    tiny_screened: int  # configs the tiny space prices

    def space(self, tiny: bool):
        from repro.analysis.optimize import SearchSpace
        from repro.hardware import list_hardware

        if tiny:
            return SearchSpace(
                models=("LLaMA-3-8B", "LLaMA-2-70B"),
                hardware=("A100", "H100"),
                frameworks=("vLLM",),
                quant_schemes=("fp16", "fp8"),
                tensor_parallel=(1, 2),
                batch_sizes=(1, 8, 64),
            )
        return SearchSpace(
            models=PAPER_MODELS,
            hardware=tuple(list_hardware()),
            frameworks=PAPER_FRAMEWORKS,
            quant_schemes=("fp16", "fp8", "int8"),
            tensor_parallel=(1, 2, 4, 8),
            batch_sizes=tuple(2**i for i in range(10)),
        )

    def prepare(self, seed: int, tiny: bool = False) -> Prepared:
        from repro.analysis.optimize import optimize

        space = self.space(tiny)
        expected = self.tiny_screened if tiny else self.screened

        def execute() -> tuple[str, object]:
            report = optimize(space, seed=seed)
            return report.to_json(), report

        def check(report) -> Verdict:
            errors = []
            if report.stats.configs_screened != expected:
                errors.append(
                    f"screened {report.stats.configs_screened} configs, "
                    f"expected {expected}"
                )
            for name, objectives in FRONTIER_OBJECTIVES.items():
                points = [objectives(c) for c in report.frontiers[name]]
                if any(
                    _dominates(a, b)
                    for i, a in enumerate(points)
                    for j, b in enumerate(points)
                    if i != j
                ):
                    errors.append(f"frontier {name} holds a dominated point")
            counts = {
                "configs": report.stats.configs_screened,
                "oom_lanes": report.stats.oom_lanes,
            }
            return Verdict(expected if errors else 0, errors, counts)

        return Prepared(expected, execute, check)


WORKLOADS = {
    w.name: w
    for w in (
        ClusterWorkload(
            name="chat-diurnal-8r",
            scenario="diurnal-chat",
            sessions=2400,
            tiny_sessions=24,
            replicas=8,
            router="session-affinity",
        ),
        ClusterWorkload(
            name="flash-crowd-64r",
            scenario="flash-crowd",
            sessions=10_000,
            tiny_sessions=200,
            replicas=64,
            router="least-outstanding",
            base_rps=40.0,
        ),
        ClusterWorkload(
            name="rag-1r",
            scenario="rag-long-context",
            sessions=16_000,
            tiny_sessions=64,
            replicas=1,
            router="round-robin",
        ),
        ClusterWorkload(
            name="tenants-observed-8r",
            scenario="multi-tenant-prod",
            sessions=3000,
            tiny_sessions=30,
            replicas=8,
            router="session-affinity",
            observed=True,
        ),
        OptimizeWorkload(
            name="optimize-paper-zoo",
            screened=5520,
            tiny_screened=36,
        ),
    )
}
