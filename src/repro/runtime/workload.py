"""Workload generators: request-arrival and length distributions.

The paper's benchmarks use fixed-shape batches (all requests identical,
arriving together); this module also provides Poisson arrivals and
blended-token length distributions so the serving engine can be exercised
under realistic load (summarization-style long-in/short-out, generation-
style short-in/long-out — Section IV-A2's "blended tokens").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.request import GenerationRequest

__all__ = [
    "fixed_batch_trace",
    "poisson_trace",
    "blended_trace",
    "open_loop_trace",
    "shared_prefix_trace",
    "TraceSummary",
]


def fixed_batch_trace(
    batch_size: int, input_tokens: int, output_tokens: int
) -> list[GenerationRequest]:
    """The paper's benchmark shape: identical requests, all at t=0."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return [
        GenerationRequest(input_tokens=input_tokens, output_tokens=output_tokens)
        for _ in range(batch_size)
    ]


def _poisson_arrivals(
    num_requests: int, rate_per_s: float, seed: int
) -> list[float]:
    """Arrival times with exponential gaps at ``rate_per_s``, from t=0."""
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if rate_per_s <= 0:
        raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_s, size=num_requests)
    arrivals = np.cumsum(gaps)
    arrivals -= arrivals[0]  # first request arrives at t=0
    return arrivals.tolist()


def poisson_trace(
    num_requests: int,
    rate_per_s: float,
    input_tokens: int,
    output_tokens: int,
    seed: int = 0,
) -> list[GenerationRequest]:
    """Requests with exponential inter-arrival gaps at ``rate_per_s``."""
    return [
        GenerationRequest(
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            arrival_time=t,
        )
        for t in _poisson_arrivals(num_requests, rate_per_s, seed)
    ]


def blended_trace(
    num_requests: int,
    mean_input_tokens: int,
    mean_output_tokens: int,
    seed: int = 0,
    min_tokens: int = 8,
    max_tokens: int = 8192,
) -> list[GenerationRequest]:
    """Mixed-length requests (lognormal lengths), all arriving at t=0.

    Lognormal with sigma=0.6 gives the heavy-ish tail real prompt traces
    show while keeping the mean at the requested value.
    """
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if min_tokens < 1 or max_tokens < min_tokens:
        raise ValueError("need 1 <= min_tokens <= max_tokens")
    rng = np.random.default_rng(seed)
    sigma = 0.6
    # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); solve mu for the mean.
    mu_in = np.log(mean_input_tokens) - sigma**2 / 2
    mu_out = np.log(mean_output_tokens) - sigma**2 / 2
    ins = np.clip(rng.lognormal(mu_in, sigma, num_requests), min_tokens, max_tokens)
    outs = np.clip(rng.lognormal(mu_out, sigma, num_requests), min_tokens, max_tokens)
    return [
        GenerationRequest(input_tokens=int(i), output_tokens=int(o))
        for i, o in zip(ins, outs)
    ]


def open_loop_trace(
    num_requests: int,
    rate_per_s: float,
    mean_input_tokens: int,
    mean_output_tokens: int,
    seed: int = 0,
) -> list[GenerationRequest]:
    """Poisson arrivals carrying blended (lognormal) lengths.

    The standard online-serving workload: exponential inter-arrival gaps
    at ``rate_per_s`` combined with the heavy-tailed length mix of
    :func:`blended_trace`, from one seed.  Used by the load generator and
    the cluster simulator CLI.
    """
    arrivals = _poisson_arrivals(num_requests, rate_per_s, seed)
    shaped = blended_trace(
        num_requests, mean_input_tokens, mean_output_tokens, seed=seed
    )
    for arrival, request in zip(arrivals, shaped):
        request.arrival_time = arrival
    return shaped


def shared_prefix_trace(
    num_requests: int,
    rate_per_s: float,
    num_prefixes: int,
    prefix_tokens: int,
    unique_tokens: int,
    output_tokens: int,
    seed: int = 0,
) -> list[GenerationRequest]:
    """Poisson arrivals that reuse ``num_prefixes`` shared prompt prefixes.

    Models system-prompt / multi-turn traffic: every request opens with
    one of ``num_prefixes`` identical ``prefix_tokens``-long prefixes
    (chosen uniformly) followed by ``unique_tokens`` of fresh context.
    A prefix-affinity router can steer repeats of a prefix to the replica
    already holding its KV blocks; other policies hit only by chance.
    """
    if num_prefixes < 1:
        raise ValueError(f"num_prefixes must be >= 1, got {num_prefixes}")
    if prefix_tokens < 1 or unique_tokens < 1:
        raise ValueError("prefix_tokens and unique_tokens must be >= 1")
    arrivals = _poisson_arrivals(num_requests, rate_per_s, seed)
    rng = np.random.default_rng(seed + 1)  # decouple from the arrival draw
    prefix_ids = rng.integers(0, num_prefixes, size=num_requests)
    return [
        GenerationRequest(
            input_tokens=prefix_tokens + unique_tokens,
            output_tokens=output_tokens,
            arrival_time=arrival,
            prefix_id=int(pid),
            prefix_tokens=prefix_tokens,
        )
        for arrival, pid in zip(arrivals, prefix_ids)
    ]


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate shape of a trace (for reports and tests)."""

    num_requests: int
    total_input_tokens: int
    total_output_tokens: int
    first_arrival_s: float
    last_arrival_s: float

    @classmethod
    def of(cls, trace: list[GenerationRequest]) -> "TraceSummary":
        if not trace:
            raise ValueError("trace is empty")
        return cls(
            num_requests=len(trace),
            total_input_tokens=sum(r.input_tokens for r in trace),
            total_output_tokens=sum(r.output_tokens for r in trace),
            first_arrival_s=min(r.arrival_time for r in trace),
            last_arrival_s=max(r.arrival_time for r in trace),
        )
