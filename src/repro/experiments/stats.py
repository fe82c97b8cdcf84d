"""Statistics for replicated runs: confidence intervals and A/B tests.

Every number the simulator reports is one draw from the seed
distribution — arrival jitter, length sampling and routing tie-breaks all
flow from the workload seed.  This module turns a *set* of seeded runs
into statements with error bars: per-metric summaries with confidence
intervals (Student-t or bootstrap), and two-sample significance tests
(Welch's t, Mann-Whitney U, paired-by-seed t) for A-vs-B deployment
comparisons.

Degenerate inputs are first-class, not errors, because replication sweeps
routinely produce them:

* one seed  → no interval (NaN bounds), no test;
* zero variance, equal means (an A/A comparison of identical configs on
  shared seeds) → p = 1.0, never "significant";
* zero variance, different means (a deterministic config change) →
  p = 0.0;
* NaN samples (zero-completion runs report NaN percentiles) are dropped
  before any arithmetic, with the effective ``n`` recorded.

scipy provides the distributions; all policy (guards, NaN handling,
deterministic bootstrap seeding) lives here so results are reproducible
byte-for-byte across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.jsonio import json_num

__all__ = [
    "MetricSummary",
    "TestResult",
    "summarize_samples",
    "t_interval",
    "bootstrap_interval",
    "welch_t_test",
    "mann_whitney_u_test",
    "paired_t_test",
]

#: Default two-sided confidence level for intervals.
DEFAULT_CONFIDENCE = 0.95

#: Bootstrap resample count: enough for stable 95% percentile bounds on
#: the handful-of-seeds replications this harness runs, small enough to
#: stay instant.
_BOOTSTRAP_RESAMPLES = 2000

#: Relative tolerance under which a sample set counts as constant (the
#: zero-variance guards).  Simulator replications of a deterministic
#: config reproduce exactly, so exact equality would suffice; the epsilon
#: tolerates caller-side float summarization.
_CONST_RTOL = 1e-12


def _finite(samples: list[float]) -> list[float]:
    return [s for s in samples if math.isfinite(s)]


def _is_constant(values: list[float]) -> bool:
    lo, hi = min(values), max(values)
    scale = max(abs(lo), abs(hi), 1.0)
    return (hi - lo) <= _CONST_RTOL * scale


@dataclass(frozen=True)
class MetricSummary:
    """One metric's distribution over a replication's seeds."""

    name: str
    n: int  # finite samples the summary is built on
    mean: float
    std: float  # sample standard deviation (ddof=1); NaN for n < 2
    ci_lo: float  # NaN when no interval exists (n < 2)
    ci_hi: float
    confidence: float
    method: str  # "t" | "bootstrap" | "none"

    @property
    def half_width(self) -> float:
        if not (math.isfinite(self.ci_lo) and math.isfinite(self.ci_hi)):
            return float("nan")
        return (self.ci_hi - self.ci_lo) / 2.0

    def to_json_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "n": self.n,
            "mean": json_num(self.mean),
            "std": json_num(self.std),
            "ci_lo": json_num(self.ci_lo),
            "ci_hi": json_num(self.ci_hi),
            "confidence": self.confidence,
            "method": self.method,
        }

    def render(self) -> str:
        if self.n == 0:
            return f"{self.name}: no finite samples"
        if not math.isfinite(self.ci_lo):
            return f"{self.name}: {self.mean:.6g} (n={self.n}, no CI)"
        return (
            f"{self.name}: {self.mean:.6g} "
            f"[{self.ci_lo:.6g}, {self.ci_hi:.6g}] "
            f"({self.confidence:.0%} CI, n={self.n})"
        )


@dataclass(frozen=True)
class TestResult:
    """Outcome of one two-sample significance test."""

    test: str  # "welch-t" | "mann-whitney-u" | "paired-t" | "none"
    statistic: float
    p_value: float  # NaN when the test could not run (n too small)
    n_a: int
    n_b: int

    def significant(self, alpha: float = 0.05) -> bool:
        """True only on positive evidence: NaN p-values never flag."""
        return math.isfinite(self.p_value) and self.p_value < alpha

    def to_json_dict(self) -> dict[str, object]:
        return {
            "test": self.test,
            "statistic": json_num(self.statistic),
            "p_value": json_num(self.p_value),
            "n_a": self.n_a,
            "n_b": self.n_b,
        }


# ----------------------------------------------------------------------
# Confidence intervals
# ----------------------------------------------------------------------


def t_interval(
    samples: list[float], confidence: float = DEFAULT_CONFIDENCE
) -> tuple[float, float]:
    """Student-t confidence interval for the mean of ``samples``.

    Returns ``(nan, nan)`` for fewer than two finite samples — a 1-seed
    replication has a point estimate and no interval.
    """
    _check_confidence(confidence)
    values = _finite(samples)
    if len(values) < 2:
        return float("nan"), float("nan")
    from scipy import stats as _stats

    mean = float(np.mean(values))
    sem = float(np.std(values, ddof=1)) / math.sqrt(len(values))
    if sem == 0.0:
        return mean, mean  # constant samples: a zero-width interval
    crit = float(_stats.t.ppf((1.0 + confidence) / 2.0, len(values) - 1))
    return mean - crit * sem, mean + crit * sem


def bootstrap_interval(
    samples: list[float],
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = _BOOTSTRAP_RESAMPLES,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile-bootstrap interval for the mean (deterministic ``seed``).

    The resampling RNG is seeded explicitly so bundles and CI replays
    reproduce the same bounds byte-for-byte.
    """
    _check_confidence(confidence)
    values = _finite(samples)
    if len(values) < 2:
        return float("nan"), float("nan")
    if _is_constant(values):
        mean = float(np.mean(values))
        return mean, mean
    rng = np.random.default_rng(seed)
    arr = np.asarray(values)
    draws = rng.integers(0, len(arr), size=(resamples, len(arr)))
    means = arr[draws].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def summarize_samples(
    name: str,
    samples: list[float],
    confidence: float = DEFAULT_CONFIDENCE,
    method: str = "t",
) -> MetricSummary:
    """Mean, spread and interval of a replication's per-seed samples."""
    values = _finite(samples)
    if not values:
        nan = float("nan")
        return MetricSummary(name, 0, nan, nan, nan, nan, confidence, "none")
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else float("nan")
    if len(values) < 2:
        return MetricSummary(
            name, 1, mean, std, float("nan"), float("nan"), confidence, "none"
        )
    if method == "t":
        lo, hi = t_interval(values, confidence)
    elif method == "bootstrap":
        lo, hi = bootstrap_interval(values, confidence)
    else:
        raise ValueError(f"unknown interval method {method!r} (t | bootstrap)")
    return MetricSummary(name, len(values), mean, std, lo, hi, confidence, method)


# ----------------------------------------------------------------------
# Two-sample significance tests
# ----------------------------------------------------------------------


def welch_t_test(a: list[float], b: list[float]) -> TestResult:
    """Welch's unequal-variance t-test (two-sided) on independent samples."""
    va, vb = _finite(a), _finite(b)
    if len(va) < 2 or len(vb) < 2:
        return TestResult("welch-t", float("nan"), float("nan"), len(va), len(vb))
    if _is_constant(va) and _is_constant(vb):
        return _constant_verdict("welch-t", va, vb)
    from scipy import stats as _stats

    result = _stats.ttest_ind(va, vb, equal_var=False)
    return TestResult(
        "welch-t", float(result.statistic), float(result.pvalue), len(va), len(vb)
    )


def mann_whitney_u_test(a: list[float], b: list[float]) -> TestResult:
    """Mann-Whitney U (two-sided), the rank-based non-parametric option."""
    va, vb = _finite(a), _finite(b)
    if len(va) < 2 or len(vb) < 2:
        return TestResult(
            "mann-whitney-u", float("nan"), float("nan"), len(va), len(vb)
        )
    from scipy import stats as _stats

    result = _stats.mannwhitneyu(va, vb, alternative="two-sided")
    return TestResult(
        "mann-whitney-u",
        float(result.statistic),
        float(result.pvalue),
        len(va),
        len(vb),
    )


def paired_t_test(a: list[float], b: list[float]) -> TestResult:
    """Paired t-test on per-seed differences (configs sharing workloads).

    Pairs where either side is non-finite are dropped together, keeping
    the pairing intact.  Sharing seeds removes the workload-draw variance
    from the comparison, so this is the highest-power test when both
    deployments ran the same arrival/length sequences.
    """
    if len(a) != len(b):
        raise ValueError(
            f"paired test needs equal-length samples, got {len(a)} vs {len(b)}"
        )
    pairs = [
        (x, y) for x, y in zip(a, b) if math.isfinite(x) and math.isfinite(y)
    ]
    n = len(pairs)
    if n < 2:
        return TestResult("paired-t", float("nan"), float("nan"), n, n)
    diffs = [x - y for x, y in pairs]
    if _is_constant(diffs):
        # Identical differences every seed: either the configs agree
        # exactly (p=1) or one is deterministically offset (p=0).
        mean_d = float(np.mean(diffs))
        scale = max(abs(float(np.mean([x for x, _ in pairs]))), 1.0)
        p = 1.0 if abs(mean_d) <= _CONST_RTOL * scale else 0.0
        return TestResult("paired-t", 0.0 if p == 1.0 else math.inf, p, n, n)
    from scipy import stats as _stats

    result = _stats.ttest_rel([x for x, _ in pairs], [y for _, y in pairs])
    return TestResult(
        "paired-t", float(result.statistic), float(result.pvalue), n, n
    )


def _constant_verdict(
    test: str, va: list[float], vb: list[float]
) -> TestResult:
    """Both sides constant: scipy returns NaN; decide by mean equality."""
    mean_a, mean_b = float(np.mean(va)), float(np.mean(vb))
    scale = max(abs(mean_a), abs(mean_b), 1.0)
    if abs(mean_a - mean_b) <= _CONST_RTOL * scale:
        return TestResult(test, 0.0, 1.0, len(va), len(vb))
    return TestResult(test, math.inf, 0.0, len(va), len(vb))


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
