"""Configuration-space search utilities.

The paper's footnote 1 notes that "NVIDIA GPUs and SN40L can handle batch
sizes beyond 32 and 64 ... peak throughput might be higher" while "the
performance of AMD GPUs declines beyond a certain batch size".  These
helpers make that exploration a query: find the throughput-maximizing batch
(golden-section-style integer search over a unimodal-with-saturation
curve), and locate the knee where marginal ITL cost stops paying for
marginal throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.request import GenerationConfig
from repro.perf.estimator import InferenceEstimator
from repro.perf.kernel import get_kernel
from repro.perf.phases import Deployment

__all__ = ["PeakBatchResult", "find_peak_batch", "throughput_curve"]


@dataclass(frozen=True)
class PeakBatchResult:
    """Outcome of the peak-batch search."""

    batch_size: int
    throughput_tokens_per_s: float
    itl_s: float
    memory_limited: bool  # peak set by KV capacity rather than the curve
    evaluated: tuple[int, ...]


def throughput_curve(
    dep: Deployment,
    input_tokens: int,
    output_tokens: int,
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
    kernel=None,
) -> dict[int, float]:
    """Throughput at each batch size (0.0 where the point OOMs).

    The whole batch axis is evaluated in one vectorized
    :meth:`~repro.perf.kernel.StepCostKernel.evaluate_grid` pass (equal
    to the scalar estimator's throughput; tested).  A ``kernel``
    without a grid API (e.g. :class:`~repro.perf.kernel.DirectStepCost`)
    falls back to one shared estimator looping over the batch sizes.
    """
    kernel = kernel if kernel is not None else get_kernel(dep)
    if hasattr(kernel, "evaluate_grid"):
        grid = kernel.evaluate_grid(batch_sizes, (input_tokens,), (output_tokens,))
        return {
            bs: float(grid.throughput_tokens_per_s[i, 0, 0])
            for i, bs in enumerate(batch_sizes)
        }
    estimator = InferenceEstimator(dep, kernel=kernel)
    return {
        bs: estimator.throughput(GenerationConfig(input_tokens, output_tokens, bs))
        for bs in batch_sizes
    }


def find_peak_batch(
    dep: Deployment,
    input_tokens: int,
    output_tokens: int,
    max_batch: int = 1024,
    estimator: InferenceEstimator | None = None,
) -> PeakBatchResult:
    """Throughput-maximizing batch size via a bounded probe ladder.

    Probes powers of two up to ``max_batch`` (stopping after two
    consecutive non-improvements), then refines with eight evenly spaced
    probes between ``best/2`` and ``best*2``.  Bounded and deterministic;
    handles both the saturating Nvidia curve and MI250's
    rise-then-decline shape.

    One ``estimator`` (kernel-backed by default) serves every probe, and
    refinement probes already evaluated by the ladder are skipped outright,
    so each distinct batch size costs exactly one estimate.  Callers
    sweeping many workloads on one deployment should pass their own
    estimator to share its capacity cache across calls.
    """
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    if estimator is None:
        estimator = InferenceEstimator(dep)
    evaluated: dict[int, float] = {}

    def tput(bs: int) -> float:
        if bs not in evaluated:
            evaluated[bs] = estimator.throughput(
                GenerationConfig(input_tokens, output_tokens, bs)
            )
        return evaluated[bs]

    # Doubling ladder.
    best = 1
    misses = 0
    bs = 1
    while bs <= max_batch and misses < 2:
        if tput(bs) > tput(best):
            best = bs
            misses = 0
        else:
            misses += 1 if bs > 1 else 0
        bs *= 2
    # Refinement: evenly spaced probes around the ladder's best, deduped
    # against the ladder's evaluations (probes collapse onto ladder points
    # when ``hi - lo`` is small).
    lo = max(1, best // 2)
    hi = min(max_batch, best * 2)
    probes = {lo + (hi - lo) * i // 9 for i in range(1, 9)}
    for probe in sorted(probes - evaluated.keys()):
        if probe >= 1:
            tput(probe)

    peak = max(evaluated, key=evaluated.get)  # type: ignore[arg-type]
    metrics = estimator.estimate(
        GenerationConfig(input_tokens, output_tokens, peak)
    )
    capacity = estimator.capacity(
        GenerationConfig(input_tokens, output_tokens, peak)
    )
    return PeakBatchResult(
        batch_size=peak,
        throughput_tokens_per_s=evaluated[peak],
        itl_s=metrics.itl_s,
        memory_limited=peak >= capacity.max_concurrency,
        evaluated=tuple(sorted(evaluated)),
    )
