"""Online-serving load generation and SLO accounting.

The paper's Section VII frames deployment choices around chat SLOs: rapid
first token (TTFT) and smooth streaming (ITL).  This module runs an
open-loop arrival process through the serving engine and reports the
operator-facing statistics the paper's dashboard targets: latency
percentiles, goodput (requests meeting the SLO per second), and sustained
token throughput.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.core import jsonio
from repro.core.request import GenerationRequest, mean_itl_s
from repro.core.stats import mean, percentile
from repro.perf.phases import Deployment
from repro.runtime.engine import ServingEngine
from repro.runtime.paged_kv import OutOfMemoryError
from repro.runtime.workload import open_loop_trace

__all__ = [
    "ServiceLevelObjective",
    "TenantReport",
    "LoadReport",
    "summarize_requests",
    "run_load_test",
    "bisect_max_rate",
    "find_max_sustainable_rate",
]


@dataclass(frozen=True)
class ServiceLevelObjective:
    """Per-request latency targets (chat defaults per Section VII-2).

    The single definition of serving objectives shared by the load
    generator, the cluster capacity planner and the control plane's
    SLO-driven autoscaler: TTFT and ITL bounds, an optional end-to-end
    latency bound, and the attainment fraction a fleet must reach for a
    rate to count as sustained.
    """

    ttft_s: float = 1.5
    itl_s: float = 1.0 / 12.0  # >= 12 streamed tokens/s
    e2e_s: float | None = None  # optional end-to-end latency bound
    attainment_target: float = 0.95  # fraction of requests that must meet it

    def __post_init__(self) -> None:
        # ``not x > 0`` also rejects NaN, which a JSON ``null`` loads as.
        if not (self.ttft_s > 0 and self.itl_s > 0):
            raise ValueError("SLO bounds must be positive")
        if self.e2e_s is not None and not self.e2e_s > 0:
            raise ValueError("SLO bounds must be positive")
        if not 0 < self.attainment_target <= 1:
            raise ValueError("attainment_target must be in (0, 1]")

    def met_by(self, request: GenerationRequest) -> bool:
        if request.first_token_time is None or request.finish_time is None:
            return False
        if request.ttft_s > self.ttft_s:
            return False
        if self.e2e_s is not None and request.end_to_end_latency_s > self.e2e_s:
            return False
        if request.output_tokens > 1 and request.itl_s > self.itl_s:
            return False
        return True


@dataclass(frozen=True)
class TenantReport:
    """Per-tenant SLO accounting lane inside a :class:`LoadReport`.

    Each tenant (a traffic class from a :mod:`repro.scenarios` mix) is
    judged against its *own* SLO.  A tenant that completed zero requests
    reports NaN latency lanes and zero attainment rather than raising, so
    mixed-outcome sweeps aggregate cleanly.
    """

    tenant: str
    requests: int
    completed_requests: int
    slo_attainment: float
    ntpot_mean_s: float
    ttft_p95_s: float
    failure_rate: float

    def render(self) -> str:
        return (
            f"tenant {self.tenant}: {self.requests} req | "
            f"{self.slo_attainment:.0%} SLO | "
            f"TTFT p95 {self.ttft_p95_s:.2f}s | "
            f"NTPOT {self.ntpot_mean_s * 1e3:.1f}ms | "
            f"{self.failure_rate:.0%} failed"
        )

    to_json_dict = jsonio.to_json_dict
    from_json_dict = classmethod(jsonio.from_json_dict)


@dataclass(frozen=True)
class LoadReport:
    """Aggregate statistics of one load-test run."""

    offered_rate_rps: float
    completed_requests: int
    makespan_s: float
    throughput_tokens_per_s: float
    ttft_p50_s: float
    ttft_p95_s: float
    ttft_p99_s: float
    itl_mean_s: float
    slo_attainment: float  # fraction of requests meeting the SLO
    goodput_rps: float  # SLO-meeting requests per second
    average_power_w: float
    # Normalized time per output token: mean over finished requests of
    # end-to-end latency / output tokens (llm-d-benchmark's NTPOT).
    # Unlike ITL it charges queueing and prefill to every token, so it is
    # the per-token number an operator's cost model should use.  NaN when
    # nothing finished.
    ntpot_mean_s: float = float("nan")
    failure_rate: float = 0.0  # fraction of requests that never finished
    # Per-tenant lanes (scenario traffic mixes); empty for untagged runs.
    tenants: tuple[TenantReport, ...] = ()

    def render(self) -> str:
        line = (
            f"offered {self.offered_rate_rps:.2f} req/s | "
            f"goodput {self.goodput_rps:.2f} req/s "
            f"({self.slo_attainment:.0%} SLO) | "
            f"TTFT p50/p95/p99 {self.ttft_p50_s:.2f}/{self.ttft_p95_s:.2f}/"
            f"{self.ttft_p99_s:.2f}s | ITL {self.itl_mean_s * 1e3:.1f}ms | "
            f"NTPOT {self.ntpot_mean_s * 1e3:.1f}ms | "
            f"{self.throughput_tokens_per_s:,.0f} tok/s | "
            f"{self.average_power_w:,.0f} W"
        )
        if self.failure_rate > 0:
            line += f" | {self.failure_rate:.0%} failed"
        if self.tenants:
            line = "\n".join([line, *(t.render() for t in self.tenants)])
        return line

    to_json_dict = jsonio.to_json_dict
    from_json_dict = classmethod(jsonio.from_json_dict)


def _tenant_report(
    tenant: str,
    requests: list[GenerationRequest],
    slo: ServiceLevelObjective,
) -> TenantReport:
    """One tenant's lane, NaN-safe when the tenant completed nothing."""
    completed = [r for r in requests if r.first_token_time is not None]
    finished = [r for r in completed if r.finish_time is not None]
    return TenantReport(
        tenant=tenant,
        requests=len(requests),
        completed_requests=len(finished),
        slo_attainment=(
            sum(1 for r in requests if slo.met_by(r)) / len(requests)
            if requests
            else 0.0
        ),
        ntpot_mean_s=mean(r.ntpot_s for r in finished),
        ttft_p95_s=percentile((r.ttft_s for r in completed), 95),
        failure_rate=(
            1.0 - len(finished) / len(requests) if requests else 0.0
        ),
    )


def summarize_requests(
    requests: list[GenerationRequest],
    makespan_s: float,
    offered_rate_rps: float,
    slo: ServiceLevelObjective | None = None,
    average_power_w: float = 0.0,
    tenant_slos: dict[str, ServiceLevelObjective] | None = None,
) -> LoadReport:
    """Aggregate a finished (or failed) request set into a :class:`LoadReport`.

    The single accounting path for both one engine and a whole cluster:
    percentiles come back NaN (like ``EngineResult.mean_ttft_s``) instead
    of raising when nothing completed — an all-OOM run, a zero-arrival
    window — so sweeps over mixed outcomes never blow up mid-aggregation.

    Tenant lanes appear when either ``tenant_slos`` names traffic classes
    or requests carry ``tenant`` tags; each lane is judged against that
    tenant's own SLO (falling back to the run-level ``slo``), and a
    tenant with zero requests still gets a lane (NaN latencies) so
    dashboards show the gap rather than silently dropping the class.
    """
    if not requests:
        raise ValueError("requests is empty")
    slo = slo or ServiceLevelObjective()
    completed = [r for r in requests if r.first_token_time is not None]
    finished = [r for r in completed if r.finish_time is not None]

    ttfts = [r.ttft_s for r in completed]

    tenant_names: list[str] = []
    for r in requests:
        if r.tenant is not None and r.tenant not in tenant_names:
            tenant_names.append(r.tenant)
    for name in sorted(tenant_slos or ()):
        if name not in tenant_names:
            tenant_names.append(name)
    tenant_reports = tuple(
        _tenant_report(
            name,
            [r for r in requests if r.tenant == name],
            (tenant_slos or {}).get(name, slo),
        )
        for name in sorted(tenant_names)
    )

    total_tokens = sum(r.input_tokens + r.generated_tokens for r in requests)
    met = sum(1 for r in requests if slo.met_by(r))
    return LoadReport(
        offered_rate_rps=offered_rate_rps,
        completed_requests=len(finished),
        makespan_s=makespan_s,
        throughput_tokens_per_s=(
            total_tokens / makespan_s if makespan_s > 0 else 0.0
        ),
        ttft_p50_s=percentile(ttfts, 50),
        ttft_p95_s=percentile(ttfts, 95),
        ttft_p99_s=percentile(ttfts, 99),
        itl_mean_s=mean_itl_s(requests),
        slo_attainment=met / len(requests),
        goodput_rps=met / makespan_s if makespan_s > 0 else 0.0,
        average_power_w=average_power_w,
        ntpot_mean_s=mean(r.ntpot_s for r in finished),
        failure_rate=1.0 - len(finished) / len(requests),
        tenants=tenant_reports,
    )


def run_load_test(
    deployment: Deployment,
    rate_rps: float,
    num_requests: int = 64,
    mean_input_tokens: int = 512,
    mean_output_tokens: int = 256,
    max_concurrency: int = 32,
    slo: ServiceLevelObjective | None = None,
    seed: int = 0,
) -> LoadReport:
    """Drive Poisson arrivals with blended lengths through the engine.

    A run the engine aborts with :class:`OutOfMemoryError` (a request that
    can never fit) reports zero completions and NaN percentiles rather
    than raising, so capacity sweeps can cross the OOM frontier.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    slo = slo or ServiceLevelObjective()

    trace = open_loop_trace(
        num_requests, rate_rps, mean_input_tokens, mean_output_tokens, seed=seed
    )
    engine = ServingEngine(deployment, max_concurrency=max_concurrency)
    try:
        result = engine.run(trace)
        makespan, power = result.total_time_s, result.average_power_w
    except OutOfMemoryError:
        makespan, power = 0.0, 0.0
    return summarize_requests(
        trace, makespan, rate_rps, slo=slo, average_power_w=power
    )


def bisect_max_rate(
    probe: Callable[[float], LoadReport],
    attainment_target: float,
    max_rate_rps: float,
    tolerance_rps: float,
) -> tuple[float, LoadReport]:
    """The highest offered rate whose ``probe`` meets ``attainment_target``.

    Probes ``tolerance_rps``, then ``max_rate_rps``, then bisects between
    them until the bracket is no wider than ``tolerance_rps``.  Returns
    (rate, report at that rate): (0.0, lightest report) when even the
    lightest probe misses, (``max_rate_rps``, its report) when the
    heaviest one meets the target.
    """
    lo, hi = tolerance_rps, max_rate_rps
    lo_report = probe(lo)
    if lo_report.slo_attainment < attainment_target:
        return 0.0, lo_report  # even the lightest probe misses the SLO
    hi_report = probe(hi)
    if hi_report.slo_attainment >= attainment_target:
        return hi, hi_report  # never saturates within the probe range
    best_rate, best_report = lo, lo_report
    while hi - lo > tolerance_rps:
        mid = (lo + hi) / 2
        report = probe(mid)
        if report.slo_attainment >= attainment_target:
            best_rate, best_report = mid, report
            lo = mid
        else:
            hi = mid
    return best_rate, best_report


def find_max_sustainable_rate(
    deployment: Deployment,
    slo: ServiceLevelObjective | None = None,
    attainment_target: float = 0.95,
    num_requests: int = 48,
    max_rate_rps: float = 64.0,
    tolerance_rps: float = 0.25,
    seed: int = 0,
    **workload_kwargs: int,
) -> tuple[float, LoadReport]:
    """Capacity search: the highest offered rate meeting the SLO.

    Bisects the offered Poisson rate until the SLO-attainment fraction
    crosses ``attainment_target`` — the operator question ("how many
    requests per second can this deployment absorb?") the paper's
    dashboard is built to answer.  Returns (rate, report at that rate).
    """
    if not 0 < attainment_target <= 1:
        raise ValueError("attainment_target must be in (0, 1]")
    if max_rate_rps <= tolerance_rps:
        raise ValueError("max_rate_rps must exceed tolerance_rps")
    slo = slo or ServiceLevelObjective()

    def attainment(rate: float) -> LoadReport:
        return run_load_test(
            deployment,
            rate_rps=rate,
            num_requests=num_requests,
            slo=slo,
            seed=seed,
            **workload_kwargs,
        )

    return bisect_max_rate(attainment, attainment_target, max_rate_rps, tolerance_rps)
