"""Multi-seed replication runner.

``run_replication`` executes one :class:`ExperimentSpec` once per seed —
on the single-engine path or the full cluster simulator — and reduces the
per-seed outcomes into a :class:`ReplicationReport`: every serving metric
(TTFT percentiles, ITL, NTPOT, e2e latency, throughput, goodput, SLO
attainment, failure rate, and MFU/MBU/J-per-token when profiled) becomes
a :class:`~repro.experiments.stats.MetricSummary` with a confidence
interval instead of a bare point estimate.

A seed that aborts with :class:`OutOfMemoryError` is *kept*, not
dropped: it contributes a zero-completion result (failure rate 1.0, NaN
latency percentiles) so capacity-frontier experiments report the OOM
probability rather than silently conditioning on survival.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import BenchmarkRunner
from repro.cluster.router import get_router
from repro.cluster.simulator import ClusterSimulator
from repro.core.jsonio import from_json_num, json_num
from repro.core.request import GenerationRequest
from repro.core.results import ResultTable
from repro.core.stats import percentile
from repro.experiments.spec import ExperimentSpec
from repro.experiments.stats import (
    DEFAULT_CONFIDENCE,
    MetricSummary,
    summarize_samples,
)
from repro.obs.metrics import MetricsSnapshot
from repro.obs.profiler import ProfileReport
from repro.obs.telemetry import TelemetryHub, TelemetrySnapshot
from repro.obs.tracer import EventTracer
from repro.runtime.engine import ServingEngine
from repro.runtime.loadgen import ServiceLevelObjective, summarize_requests
from repro.runtime.paged_kv import OutOfMemoryError

__all__ = ["SeedResult", "ReplicationReport", "run_seed", "run_replication"]


@dataclass(frozen=True)
class SeedResult:
    """Outcome of one seeded run: flat metrics plus optional deep views."""

    seed: int
    metrics: dict[str, float]
    snapshot: MetricsSnapshot | None = None
    profile: ProfileReport | None = None
    telemetry: TelemetrySnapshot | None = None

    def to_json_dict(self) -> dict[str, object]:
        """Deterministic JSON view (sorted metric keys, NaN -> null).

        The ``telemetry`` key appears only on telemetry-attached seeds,
        so bundles from telemetry-off specs stay byte-identical to ones
        written before the field existed.
        """
        payload: dict[str, object] = {
            "seed": self.seed,
            "metrics": {k: json_num(v) for k, v in sorted(self.metrics.items())},
            "snapshot": None if self.snapshot is None else self.snapshot.to_json_dict(),
            "profile": None if self.profile is None else self.profile.to_json_dict(),
        }
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry.to_json_dict()
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict[str, object]) -> "SeedResult":
        """Inverse of :meth:`to_json_dict` (``null`` -> NaN)."""
        snapshot = payload.get("snapshot")
        profile = payload.get("profile")
        telemetry = payload.get("telemetry")
        return cls(
            seed=int(payload["seed"]),  # type: ignore[arg-type]
            metrics={
                name: from_json_num(value)
                for name, value in dict(payload["metrics"]).items()  # type: ignore[arg-type]
            },
            snapshot=(
                None
                if snapshot is None
                else MetricsSnapshot.from_json_dict(snapshot)  # type: ignore[arg-type]
            ),
            profile=(
                None
                if profile is None
                else ProfileReport.from_json_dict(profile)  # type: ignore[arg-type]
            ),
            telemetry=(
                None
                if telemetry is None
                else TelemetrySnapshot.from_json_dict(telemetry)  # type: ignore[arg-type]
            ),
        )


def _extract_metrics(
    requests: list[GenerationRequest],
    makespan_s: float,
    spec: ExperimentSpec,
    average_power_w: float,
    profile: ProfileReport | None,
) -> dict[str, float]:
    slo = ServiceLevelObjective(ttft_s=spec.slo_ttft_s, itl_s=spec.slo_itl_s)
    offered = spec.workload.rate_rps
    if spec.workload.kind == "scenario":
        # Scenario arrivals come from the catalog, not rate_rps: report
        # the trace's realized rate instead.
        span = max(r.arrival_time for r in requests) - min(
            r.arrival_time for r in requests
        )
        offered = len(requests) / span if span > 0 else float(len(requests))
    report = summarize_requests(
        requests,
        makespan_s,
        offered,
        slo=slo,
        average_power_w=average_power_w,
        tenant_slos=spec.workload.tenant_slos() or None,
    )
    e2e = [r.end_to_end_latency_s for r in requests if r.finish_time is not None]
    metrics = {
        "ttft_p50_s": report.ttft_p50_s,
        "ttft_p95_s": report.ttft_p95_s,
        "ttft_p99_s": report.ttft_p99_s,
        "itl_mean_s": report.itl_mean_s,
        "ntpot_mean_s": report.ntpot_mean_s,
        "e2e_p50_s": percentile(e2e, 50),
        "e2e_p99_s": percentile(e2e, 99),
        "throughput_tokens_per_s": report.throughput_tokens_per_s,
        "goodput_rps": report.goodput_rps,
        "slo_attainment": report.slo_attainment,
        "failure_rate": report.failure_rate,
        "completed_requests": float(report.completed_requests),
        "makespan_s": makespan_s,
        "average_power_w": average_power_w,
    }
    for lane in report.tenants:
        metrics[f"tenant.{lane.tenant}.slo_attainment"] = lane.slo_attainment
        metrics[f"tenant.{lane.tenant}.ntpot_mean_s"] = lane.ntpot_mean_s
        metrics[f"tenant.{lane.tenant}.failure_rate"] = lane.failure_rate
    if profile is not None:
        metrics["mfu"] = profile.mfu
        metrics["mbu"] = profile.mbu
        metrics["joules_per_token"] = profile.joules_per_token
    return metrics


def run_seed(spec: ExperimentSpec, seed: int) -> SeedResult:
    """Execute ``spec`` once under ``seed`` and flatten its metrics."""
    runner = BenchmarkRunner()
    deployment = runner.deployment(
        spec.model, spec.hardware, spec.framework, quant=spec.quant_scheme
    )
    trace = spec.workload.build(seed)

    def make_hub() -> TelemetryHub | None:
        if not spec.telemetry:
            return None
        return TelemetryHub(
            slo=ServiceLevelObjective(
                ttft_s=spec.slo_ttft_s, itl_s=spec.slo_itl_s
            ),
            tenant_slos=spec.workload.tenant_slos() or None,
        )

    hub = make_hub()
    if spec.mode == "engine":
        tracer = EventTracer()  # recording tracer => metrics snapshot attached
        engine = ServingEngine(
            deployment,
            max_concurrency=spec.max_concurrency,
            optimistic=spec.optimistic,
            profile=spec.profiled,
            tracer=tracer,
            telemetry=hub,
        )
        try:
            result = engine.run(trace)
            makespan, power = result.total_time_s, result.average_power_w
            snapshot, profile = result.metrics, result.profile
            telemetry = result.telemetry
        except OutOfMemoryError:
            makespan, power = 0.0, 0.0
            snapshot, profile, telemetry = None, None, None
        requests = trace
    else:
        simulator = ClusterSimulator(
            deployment,
            spec.num_replicas,
            router=get_router(spec.router, seed=seed),
            max_concurrency=spec.max_concurrency,
            optimistic=spec.optimistic,
            profiled=spec.profiled,
            telemetry=hub,
        )
        try:
            result = simulator.run(trace)
            makespan, power = result.makespan_s, result.average_power_w
            snapshot, profile = result.metrics, result.profile
            telemetry = result.telemetry
            requests = result.requests
        except OutOfMemoryError:
            makespan, power = 0.0, 0.0
            snapshot, profile, telemetry = None, None, None
            requests = trace

    metrics = _extract_metrics(requests, makespan, spec, power, profile)
    return SeedResult(
        seed=seed,
        metrics=metrics,
        snapshot=snapshot,
        profile=profile,
        telemetry=telemetry,
    )


@dataclass(frozen=True)
class ReplicationReport:
    """A replicated experiment: per-seed results plus metric summaries."""

    spec: ExperimentSpec
    seed_results: tuple[SeedResult, ...]
    summaries: dict[str, MetricSummary]
    confidence: float
    method: str  # interval method: "t" | "bootstrap"

    def samples(self, metric: str) -> list[float]:
        """Per-seed values of ``metric``, in seed order (NaN kept)."""
        return [
            sr.metrics.get(metric, float("nan")) for sr in self.seed_results
        ]

    @property
    def num_seeds(self) -> int:
        return len(self.seed_results)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "spec": self.spec.to_json_dict(),
            "confidence": self.confidence,
            "method": self.method,
            "seed_results": [sr.to_json_dict() for sr in self.seed_results],
            "summaries": {
                name: summary.to_json_dict()
                for name, summary in sorted(self.summaries.items())
            },
        }

    def to_table(self, name: str | None = None) -> ResultTable:
        """One row per metric with mean / CI bounds / spread columns."""
        table = ResultTable(name=name or f"replication:{self.spec.name}")
        for metric in sorted(self.summaries):
            s = self.summaries[metric]
            table.add(
                {"experiment": self.spec.name, "metric": metric},
                {
                    "mean": s.mean,
                    "ci_lo": s.ci_lo,
                    "ci_hi": s.ci_hi,
                    "std": s.std,
                    "n": float(s.n),
                },
            )
        return table

    def render(self) -> str:
        lines = [
            f"replication: {self.spec.name} "
            f"({self.num_seeds} seeds, {self.method} intervals, "
            f"{self.confidence:.0%} confidence)"
        ]
        for metric in sorted(self.summaries):
            lines.append("  " + self.summaries[metric].render())
        return "\n".join(lines)


def run_replication(
    spec: ExperimentSpec,
    confidence: float = DEFAULT_CONFIDENCE,
    method: str = "t",
) -> ReplicationReport:
    """Run ``spec`` under every seed and summarize each metric."""
    seed_results = tuple(run_seed(spec, seed) for seed in spec.seeds)
    return reduce_seed_results(spec, seed_results, confidence, method)


def reduce_seed_results(
    spec: ExperimentSpec,
    seed_results: tuple[SeedResult, ...],
    confidence: float = DEFAULT_CONFIDENCE,
    method: str = "t",
) -> ReplicationReport:
    """Summarize already-executed seed results (also used by bundle load)."""
    names: set[str] = set()
    for sr in seed_results:
        names.update(sr.metrics)
    summaries = {
        name: summarize_samples(
            name,
            [sr.metrics.get(name, float("nan")) for sr in seed_results],
            confidence=confidence,
            method=method,
        )
        for name in sorted(names)
    }
    return ReplicationReport(
        spec=spec,
        seed_results=seed_results,
        summaries=summaries,
        confidence=confidence,
        method=method,
    )
