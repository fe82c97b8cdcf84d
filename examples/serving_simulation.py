"""Serving simulation: bursty mixed-length traffic through the event engine.

The paper benchmarks fixed-shape batches; production serving sees Poisson
arrivals and blended prompt/response lengths (Section IV-A2).  This example
drives the discrete-event engine with such a trace and contrasts continuous
batching (vLLM) against static batching (llama.cpp) — the scheduling choice
behind the paper's framework-wise takeaways.

The continuous-batching run records a full event trace
(``serving_trace.json``, loadable at https://ui.perfetto.dev) and prints
the latency percentiles from the engine's metrics registry.

Run:  python examples/serving_simulation.py
"""

from __future__ import annotations

import numpy as np

from repro import EventTracer, ServingEngine
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.obs.export import write_chrome_trace
from repro.perf.phases import Deployment
from repro.runtime.workload import blended_trace, poisson_trace


def build_trace(seed: int = 0):
    """64 requests, bursty arrivals, lognormal lengths around 512/256."""
    arrivals = poisson_trace(64, rate_per_s=4.0, input_tokens=1, output_tokens=1,
                             seed=seed)
    lengths = blended_trace(64, mean_input_tokens=512, mean_output_tokens=256,
                            seed=seed)
    trace = []
    for arrival, shaped in zip(arrivals, lengths):
        shaped.arrival_time = arrival.arrival_time
        trace.append(shaped)
    return trace


def simulate(framework_name: str, seed: int = 0, tracer: EventTracer | None = None):
    dep = Deployment(
        get_model("Mistral-7B"), get_hardware("A100"), get_framework(framework_name)
    )
    engine = ServingEngine(dep, max_concurrency=32, tracer=tracer)
    return engine.run(build_trace(seed))


def describe(name: str, result) -> None:
    ttfts = sorted(r.ttft_s for r in result.requests)
    p50 = ttfts[len(ttfts) // 2]
    p95 = ttfts[int(0.95 * len(ttfts))]
    print(f"{name}:")
    print(f"  makespan            : {result.total_time_s:8.1f} s")
    print(f"  throughput (Eq. 2)  : {result.throughput_tokens_per_s:8,.0f} tokens/s")
    print(f"  TTFT p50 / p95      : {p50:8.2f} / {p95:.2f} s")
    print(f"  mean ITL            : {result.mean_itl_s * 1e3:8.2f} ms")
    print(f"  admission rounds    : {result.scheduler_stats.admission_rounds:8d}")
    print(f"  average power       : {result.average_power_w:8,.0f} W")
    print()


def latency_percentiles(result) -> None:
    """p50/p99 table straight from the engine's metrics registry."""
    print(f"{'latency':<10}{'p50':>12}{'p99':>12}")
    for name in ("ttft_s", "itl_s"):
        hist = result.metrics.histograms[name]
        print(f"{name:<10}{hist.p50:>12.4g}{hist.p99:>12.4g}")
    print()


def main() -> None:
    print("Bursty mixed-length workload on Mistral-7B / A100\n")
    tracer = EventTracer()
    continuous = simulate("vLLM", tracer=tracer)
    static = simulate("llama.cpp")
    describe("vLLM (continuous batching, paged KV)", continuous)
    describe("llama.cpp (static batching, contiguous KV)", static)
    latency_percentiles(continuous)

    speedup = continuous.throughput_tokens_per_s / static.throughput_tokens_per_s
    print(f"Continuous batching advantage: {speedup:.1f}x aggregate throughput")

    trace_path = write_chrome_trace("serving_trace.json", tracer.events)
    print(f"wrote {len(tracer.events)} events to {trace_path} "
          "(open in https://ui.perfetto.dev)")

    # Determinism check across seeds: the engine is a simulation, so the
    # same seed reproduces the same makespan exactly — and tracing does
    # not perturb it.
    again = simulate("vLLM")
    assert np.isclose(again.total_time_s, continuous.total_time_s)
    print("(simulation is deterministic for a fixed seed)")


if __name__ == "__main__":
    main()
