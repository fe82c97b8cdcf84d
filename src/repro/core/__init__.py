"""Core primitives: metrics, precisions, requests, sweeps and result tables."""

from repro.core.metrics import (
    InferenceMetrics,
    LatencyBreakdown,
    inter_token_latency,
    perf_per_watt,
    throughput_tokens_per_s,
)
from repro.core.precision import PRECISIONS, Precision, PrecisionSpec, precision_spec
from repro.core.request import GenerationConfig, GenerationRequest, RequestState
from repro.core.results import ResultRecord, ResultTable
from repro.core.sweep import Sweep, paper_batch_sweep, paper_length_sweep


class UnknownNameError(KeyError):
    """A registry lookup (model, hardware, framework, scenario, router,
    autoscaler, experiment) found no entry; ``args[0]`` is the message."""


__all__ = [
    "UnknownNameError",
    "InferenceMetrics",
    "LatencyBreakdown",
    "inter_token_latency",
    "perf_per_watt",
    "throughput_tokens_per_s",
    "PRECISIONS",
    "Precision",
    "PrecisionSpec",
    "precision_spec",
    "GenerationConfig",
    "GenerationRequest",
    "RequestState",
    "ResultRecord",
    "ResultTable",
    "Sweep",
    "paper_batch_sweep",
    "paper_length_sweep",
]
