"""Capacity planning: how many replicas does an SLO goodput target need?

The operator question behind the paper's dashboard, asked at fleet scope:
given a target request rate that must be served *within* the chat SLO,
find the smallest replica count that sustains it.  The planner answers by
simulation — binary search over the replica count, each probe a full
cluster run at the offered target rate — and cross-checks the answer
against the closed-form data-parallel estimate
(:func:`repro.perf.multinode.replicas_for_rate`) built from the single
replica's measured sustainable rate.  On uniform workloads the two agree
within one replica (tested); the simulator earns its keep on the skewed
and shared-prefix workloads where the closed form has nothing to say.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.cluster.router import LeastOutstandingTokensRouter, Router
from repro.cluster.simulator import ClusterSimulator
from repro.core import jsonio
from repro.core.request import GenerationRequest
from repro.perf.kernel import get_kernel
from repro.perf.multinode import replicas_for_rate
from repro.perf.phases import Deployment
from repro.runtime.loadgen import (
    LoadReport,
    ServiceLevelObjective,
    bisect_max_rate,
    summarize_requests,
)
from repro.runtime.paged_kv import OutOfMemoryError
from repro.runtime.workload import open_loop_trace

__all__ = ["CapacityPlan", "ClusterCapacityPlanner", "TraceFactory"]

# (num_requests, rate_per_s, seed) -> trace
TraceFactory = Callable[[int, float, int], "list[GenerationRequest]"]


@dataclass(frozen=True)
class CapacityPlan:
    """Outcome of one planning run."""

    target_rate_rps: float
    num_replicas: int  # smallest count meeting the target (or the cap)
    analytic_replicas: int  # closed-form ceil(target / single-replica rate)
    feasible: bool  # False when even ``max_replicas`` missed the target
    report: LoadReport  # cluster report at ``num_replicas``
    probes: tuple[tuple[int, float], ...]  # (replicas, slo_attainment) tried

    def render(self) -> str:
        verdict = (
            f"{self.num_replicas} replicas"
            if self.feasible
            else f"infeasible within {self.num_replicas} replicas"
        )
        return (
            f"target {self.target_rate_rps:.2f} req/s within SLO -> {verdict} "
            f"(closed-form estimate {self.analytic_replicas}, "
            f"{len(self.probes)} probes)\n{self.report.render()}"
        )

    to_json_dict = jsonio.to_json_dict
    from_json_dict = classmethod(jsonio.from_json_dict)


class ClusterCapacityPlanner:
    """Sizes a data-parallel replica fleet for an SLO goodput target.

    Probes run an open-loop workload through a :class:`ClusterSimulator`
    at the offered target rate; a replica count passes when the fleet's
    SLO attainment reaches ``attainment_target`` — the same bar
    :func:`~repro.runtime.loadgen.find_max_sustainable_rate` applies to
    one engine, so fleet answers are comparable to single-engine ones.

    Each probe draws ``num_requests * num_replicas`` requests so every
    replica faces the same per-replica sample size and load duration as
    the single-replica reference; without that scaling a short burst
    split N ways hides saturation behind finite-run slack.

    ``trace_factory`` (``(num_requests, rate_per_s, seed) -> trace``)
    defaults to the Poisson/blended generator
    :func:`~repro.runtime.workload.open_loop_trace` at the configured
    mean lengths; pass e.g. a uniform ``poisson_trace`` wrapper to plan
    for fixed-shape traffic.
    """

    def __init__(
        self,
        deployment: Deployment,
        slo: ServiceLevelObjective | None = None,
        router_factory: Callable[[], Router] | None = None,
        trace_factory: TraceFactory | None = None,
        num_requests: int = 48,
        mean_input_tokens: int = 512,
        mean_output_tokens: int = 256,
        max_concurrency: int = 32,
        attainment_target: float | None = None,
        seed: int = 0,
    ) -> None:
        if num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        self.deployment = deployment
        self.slo = slo or ServiceLevelObjective()
        # The SLO object is the single definition of serving targets
        # (shared with the control plane's autoscaler); the explicit kwarg
        # survives as an override for sweeps over the attainment bar.
        if attainment_target is None:
            attainment_target = self.slo.attainment_target
        if not 0 < attainment_target <= 1:
            raise ValueError("attainment_target must be in (0, 1]")
        self.router_factory = router_factory or LeastOutstandingTokensRouter
        self.trace_factory = trace_factory or (
            lambda n, rate, seed: open_loop_trace(
                n, rate, mean_input_tokens, mean_output_tokens, seed=seed
            )
        )
        self.num_requests = num_requests
        self.mean_input_tokens = mean_input_tokens
        self.mean_output_tokens = mean_output_tokens
        self.max_concurrency = max_concurrency
        self.attainment_target = attainment_target
        self.seed = seed
        self._single_rate: float | None = None
        # One kernel for every probe: the bisection re-simulates the same
        # deployment dozens of times, so step costs computed by the first
        # probe are served from cache by all later ones.
        self._kernel = get_kernel(deployment)

    # ------------------------------------------------------------------

    def simulate(self, num_replicas: int, rate_rps: float) -> LoadReport:
        """One probe: the open-loop workload through ``num_replicas``."""
        trace = self.trace_factory(
            self.num_requests * num_replicas, rate_rps, self.seed
        )
        simulator = ClusterSimulator(
            self.deployment,
            num_replicas,
            router=self.router_factory(),
            max_concurrency=self.max_concurrency,
            kernel=self._kernel,
        )
        try:
            result = simulator.run(trace)
        except OutOfMemoryError:
            return summarize_requests(trace, 0.0, rate_rps, slo=self.slo)
        return result.load_report(rate_rps, slo=self.slo)

    def single_replica_rate(
        self, max_rate_rps: float = 64.0, tolerance_rps: float = 0.25
    ) -> float:
        """Max sustainable rate of one replica (bisection; cached).

        Measured through the same simulate() path every fleet probe uses
        (a 1-replica cluster reproduces the standalone engine exactly),
        so the closed-form cross-check sees a consistent workload.
        Returns 0.0 when even the lightest probe misses the SLO.
        """
        if self._single_rate is None:
            self._single_rate, _ = bisect_max_rate(
                lambda rate: self.simulate(1, rate),
                self.attainment_target,
                max_rate_rps,
                tolerance_rps,
            )
        return self._single_rate

    # ------------------------------------------------------------------

    def plan(
        self, target_rate_rps: float, max_replicas: int = 16
    ) -> CapacityPlan:
        """Smallest replica count absorbing ``target_rate_rps`` within SLO.

        Binary search over [1, max_replicas]; SLO attainment is monotone
        in replica count for the independent-replica fleet, so the search
        is sound.  ``feasible=False`` (with the cap's report) when even
        ``max_replicas`` misses the bar.
        """
        if target_rate_rps <= 0:
            raise ValueError("target_rate_rps must be positive")
        if max_replicas < 1:
            raise ValueError("max_replicas must be >= 1")

        single = self.single_replica_rate()
        analytic = (
            replicas_for_rate(target_rate_rps, single)
            if single > 0
            else max_replicas
        )
        probes: list[tuple[int, float]] = []

        def probe(count: int) -> LoadReport:
            report = self.simulate(count, target_rate_rps)
            probes.append((count, report.slo_attainment))
            return report

        report = probe(max_replicas)
        if report.slo_attainment < self.attainment_target:
            return CapacityPlan(
                target_rate_rps=target_rate_rps,
                num_replicas=max_replicas,
                analytic_replicas=analytic,
                feasible=False,
                report=report,
                probes=tuple(probes),
            )
        lo, hi = 1, max_replicas
        best = report
        while lo < hi:
            mid = (lo + hi) // 2
            report = probe(mid)
            if report.slo_attainment >= self.attainment_target:
                best, hi = report, mid
            else:
                lo = mid + 1
        return CapacityPlan(
            target_rate_rps=target_rate_rps,
            num_replicas=hi,
            analytic_replicas=analytic,
            feasible=True,
            report=best,
            probes=tuple(probes),
        )
