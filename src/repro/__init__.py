"""LLM-Inference-Bench reproduction.

A simulation-backed reimplementation of *LLM-Inference-Bench: Inference
Benchmarking of Large Language Models on AI Accelerators* (SC 2024).  The
package models the paper's full measurement matrix — LLaMA/Mistral/Qwen
model families, seven accelerator platforms, four inference frameworks —
with a first-principles analytical performance model plus a discrete-event
serving runtime, and regenerates every table and figure in the paper's
evaluation (see DESIGN.md and EXPERIMENTS.md).

Quickstart
----------
>>> from repro import BenchmarkRunner, GenerationConfig
>>> runner = BenchmarkRunner()
>>> dep = runner.deployment("LLaMA-3-8B", "A100", "vLLM")
>>> metrics = runner.run_point(dep, GenerationConfig(1024, 1024, 16))
>>> metrics.throughput_tokens_per_s  # doctest: +SKIP
"""

from repro.analysis import BottleneckReport, analyze, find_peak_batch
from repro.bench import BenchmarkRunner, run_experiment
from repro.cluster import (
    ClusterCapacityPlanner,
    ClusterSimulator,
    DisaggregationSpec,
    get_router,
)
from repro.control import (
    ControlPlane,
    FaultSchedule,
    RetryPolicy,
    get_autoscaler,
)
from repro.core import GenerationConfig, InferenceMetrics, Precision, ResultTable
from repro.frameworks import get_framework, list_frameworks
from repro.hardware import get_hardware, list_hardware
from repro.models import get_model, list_models
from repro.obs import EventTracer, MetricsRegistry
from repro.perf import Deployment, InferenceEstimator, ParallelismPlan
from repro.runtime import ServingEngine, fixed_batch_trace
from repro.scenarios import Scenario, get_scenario, list_scenarios

__version__ = "1.0.0"

__all__ = [
    "BottleneckReport",
    "analyze",
    "find_peak_batch",
    "BenchmarkRunner",
    "run_experiment",
    "ClusterCapacityPlanner",
    "ClusterSimulator",
    "DisaggregationSpec",
    "get_router",
    "ControlPlane",
    "FaultSchedule",
    "RetryPolicy",
    "get_autoscaler",
    "GenerationConfig",
    "InferenceMetrics",
    "Precision",
    "ResultTable",
    "get_framework",
    "list_frameworks",
    "get_hardware",
    "list_hardware",
    "get_model",
    "list_models",
    "Deployment",
    "InferenceEstimator",
    "ParallelismPlan",
    "ServingEngine",
    "fixed_batch_trace",
    "Scenario",
    "get_scenario",
    "list_scenarios",
    "EventTracer",
    "MetricsRegistry",
    "__version__",
]
