"""A-vs-B comparison of replicated experiments with significance tests.

``compare_replications(a, b)`` lines up the per-seed samples of every
metric the two :class:`~repro.experiments.runner.ReplicationReport`
objects share and runs a two-sample test per metric, so a sweep table can
say "FP8 cuts joules/token 18% — significant at p<0.05" instead of
quoting two point estimates.

Test selection is honest about what the runs shared: when both specs
used the same workload recipe *and* the same seed list, each seed's pair
of runs saw identical request sequences, so the paired-by-seed t-test
applies and removes the workload-draw variance entirely.  Otherwise the
samples are independent and Welch's t (or Mann-Whitney U on request) is
used.  An A/A comparison of identical configs produces identical
samples and — by the zero-variance guards in
:mod:`repro.experiments.stats` — p = 1.0, never a false "significant".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.jsonio import json_num
from repro.core.results import ResultTable
from repro.experiments.runner import ReplicationReport
from repro.experiments.stats import (
    TestResult,
    mann_whitney_u_test,
    paired_t_test,
    welch_t_test,
)

__all__ = ["MetricComparison", "ComparisonReport", "compare_replications"]

_TEST_CHOICES = ("auto", "welch", "mann-whitney", "paired")


@dataclass(frozen=True)
class MetricComparison:
    """One metric's A-vs-B outcome."""

    metric: str
    mean_a: float
    mean_b: float
    test: TestResult

    @property
    def delta(self) -> float:
        return self.mean_b - self.mean_a

    @property
    def rel(self) -> float:
        if not (math.isfinite(self.mean_a) and math.isfinite(self.mean_b)):
            return float("nan")
        if self.mean_a == 0.0:
            return float("nan")
        return self.delta / abs(self.mean_a)

    def significant(self, alpha: float = 0.05) -> bool:
        return self.test.significant(alpha)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "metric": self.metric,
            "mean_a": json_num(self.mean_a),
            "mean_b": json_num(self.mean_b),
            "delta": json_num(self.delta),
            "rel": json_num(self.rel),
            "test": self.test.to_json_dict(),
        }


@dataclass(frozen=True)
class ComparisonReport:
    """Full A-vs-B comparison across every shared metric."""

    name_a: str
    name_b: str
    comparisons: tuple[MetricComparison, ...]
    alpha: float
    paired: bool  # per-seed runs formed matched pairs

    def comparison(self, metric: str) -> MetricComparison:
        for comp in self.comparisons:
            if comp.metric == metric:
                return comp
        raise KeyError(f"no metric {metric!r} in comparison")

    def significant_metrics(self) -> list[str]:
        return sorted(
            c.metric for c in self.comparisons if c.significant(self.alpha)
        )

    def to_json_dict(self) -> dict[str, object]:
        return {
            "name_a": self.name_a,
            "name_b": self.name_b,
            "alpha": self.alpha,
            "paired": self.paired,
            "significant_metrics": self.significant_metrics(),
            "comparisons": [c.to_json_dict() for c in self.comparisons],
        }

    def to_table(self, name: str | None = None) -> ResultTable:
        """One row per metric, carrying a ``significant`` 0/1 marker."""
        table = ResultTable(name=name or f"compare:{self.name_a}-vs-{self.name_b}")
        for comp in self.comparisons:
            table.add(
                {
                    "a": self.name_a,
                    "b": self.name_b,
                    "metric": comp.metric,
                    "test": comp.test.test,
                },
                {
                    "mean_a": comp.mean_a,
                    "mean_b": comp.mean_b,
                    "delta": comp.delta,
                    "p_value": comp.test.p_value,
                    "significant": 1.0 if comp.significant(self.alpha) else 0.0,
                },
            )
        return table

    def render(self) -> str:
        pairing = "paired by seed" if self.paired else "independent samples"
        lines = [
            f"comparison: {self.name_a} (A) vs {self.name_b} (B) — "
            f"{pairing}, alpha={self.alpha:g}"
        ]
        lines.append(
            f"{'metric':<26}{'A':>12}{'B':>12}{'delta':>12}{'p':>10}{'sig':>5}"
        )
        for comp in self.comparisons:
            p = comp.test.p_value
            lines.append(
                f"{comp.metric:<26}{comp.mean_a:>12.4g}{comp.mean_b:>12.4g}"
                f"{comp.delta:>+12.4g}"
                + (f"{p:>10.3g}" if math.isfinite(p) else f"{'-':>10}")
                + f"{'*' if comp.significant(self.alpha) else '':>5}"
            )
        significant = self.significant_metrics()
        if significant:
            lines.append(
                f"significant at p<{self.alpha:g}: " + ", ".join(significant)
            )
        else:
            lines.append(f"no metric significant at p<{self.alpha:g}")
        return "\n".join(lines)


def compare_replications(
    a: ReplicationReport,
    b: ReplicationReport,
    alpha: float = 0.05,
    test: str = "auto",
) -> ComparisonReport:
    """Compare two replications metric-by-metric with significance tests.

    ``test``: "auto" picks paired-by-seed when the specs share workload
    and seeds, else Welch's t; "welch" / "mann-whitney" / "paired" force
    a specific test ("paired" requires shared workload + seeds).
    """
    if test not in _TEST_CHOICES:
        raise ValueError(f"unknown test {test!r} (known: {_TEST_CHOICES})")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    shares_workload = a.spec.paired_with(b.spec)
    if test == "paired" and not shares_workload:
        raise ValueError(
            "paired test requires both specs to share workload and seeds"
        )
    paired = shares_workload if test == "auto" else test == "paired"

    metrics = sorted(set(a.summaries) & set(b.summaries))
    comparisons = []
    for metric in metrics:
        samples_a = a.samples(metric)
        samples_b = b.samples(metric)
        if paired:
            result = paired_t_test(samples_a, samples_b)
        elif test == "mann-whitney":
            result = mann_whitney_u_test(samples_a, samples_b)
        else:
            result = welch_t_test(samples_a, samples_b)
        comparisons.append(
            MetricComparison(
                metric=metric,
                mean_a=a.summaries[metric].mean,
                mean_b=b.summaries[metric].mean,
                test=result,
            )
        )
    return ComparisonReport(
        name_a=a.spec.name,
        name_b=b.spec.name,
        comparisons=tuple(comparisons),
        alpha=alpha,
        paired=paired,
    )
