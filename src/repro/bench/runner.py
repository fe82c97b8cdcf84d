"""Benchmark runner: sweeps deployments over workloads into result tables.

``BenchmarkRunner`` is the one entry point every figure reproduction uses.
It resolves names to registry objects, picks the paper's default
parallelism plan (TP = number of devices, sized so the weights fit), runs
either the closed-form estimator (fast, default) or the discrete-event
engine (slower, higher fidelity), and appends rows to a
:class:`~repro.core.results.ResultTable`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.metrics import InferenceMetrics
from repro.core.request import GenerationConfig
from repro.core.results import ResultTable
from repro.frameworks.base import FrameworkProfile, get_framework
from repro.hardware.spec import HardwareSpec
from repro.hardware.zoo import get_hardware
from repro.models.config import ModelConfig
from repro.models.kvcache import KVCacheSpec
from repro.models.zoo import get_model
from repro.perf.estimator import InferenceEstimator
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import Deployment
from repro.obs.telemetry import TelemetryHub
from repro.perf.quantization import QuantizationScheme
from repro.runtime.engine import ServingEngine
from repro.runtime.memory_manager import OutOfMemoryError
from repro.runtime.workload import fixed_batch_trace

__all__ = ["BenchmarkRunner", "default_plan"]


def default_plan(model: ModelConfig, hardware: HardwareSpec) -> ParallelismPlan:
    """The paper's deployment rule: pure TP over as few devices as fit.

    7B-class models run on one device where they fit; 70B-class models
    take the whole node ("the number of GPUs is equal to the TP size",
    Section V).  If the weights do not fit even on the full node the full-
    node plan is returned and the capacity check downstream reports OOM
    (e.g. llama.cpp's 70B-on-A100 exclusion, Fig. 32).
    """
    weight_bytes = model.total_params * 2.0  # fp16 sizing rule
    tp = 1
    while tp < hardware.devices_per_node:
        usable = hardware.usable_memory_bytes(tp)
        if weight_bytes <= usable * 0.85:  # leave KV headroom
            break
        tp *= 2
    tp = min(tp, hardware.devices_per_node)
    if model.uses_gqa:
        tp = min(tp, model.num_kv_heads)
    return ParallelismPlan(tp=tp)


@dataclass
class BenchmarkRunner:
    """Runs benchmark points and accumulates results.

    ``use_engine=True`` swaps the closed-form estimator for the discrete-
    event serving engine (identical metrics on in-capacity workloads,
    higher fidelity under memory pressure — and slower).

    ``telemetry_factory`` (engine mode only) builds a fresh
    :class:`~repro.obs.telemetry.TelemetryHub` for every engine point;
    each point's snapshot is appended to ``telemetry_log`` keyed by its
    deployment/workload shape (the ``--telemetry-output`` payload).
    """

    use_engine: bool = False
    max_concurrency: int | None = None
    telemetry_factory: Callable[[], TelemetryHub] | None = None
    telemetry_log: list[dict] = field(default_factory=list)

    # ------------------------------------------------------------------

    def resolve(
        self,
        model: ModelConfig | str,
        hardware: HardwareSpec | str,
        framework: FrameworkProfile | str,
    ) -> tuple[ModelConfig, HardwareSpec, FrameworkProfile]:
        if isinstance(model, str):
            model = get_model(model)
        if isinstance(hardware, str):
            hardware = get_hardware(hardware)
        if isinstance(framework, str):
            framework = get_framework(framework)
        return model, hardware, framework

    def deployment(
        self,
        model: ModelConfig | str,
        hardware: HardwareSpec | str,
        framework: FrameworkProfile | str,
        plan: ParallelismPlan | None = None,
        quant: QuantizationScheme | None = None,
        kv_spec: KVCacheSpec | None = None,
    ) -> Deployment:
        model, hardware, framework = self.resolve(model, hardware, framework)
        if plan is None:
            plan = default_plan(model, hardware)
        dep = Deployment(model, hardware, framework, plan=plan)
        if quant is not None:
            dep = dep.with_quant(quant)
        if kv_spec is not None:
            dep = dep.with_kv_spec(kv_spec)
        return dep

    # ------------------------------------------------------------------

    def run_point(
        self, deployment: Deployment, config: GenerationConfig
    ) -> InferenceMetrics:
        """One benchmark point; OOM comes back as an OOM record."""
        if not self.use_engine:
            return InferenceEstimator(deployment).estimate(config)
        try:
            hub = (
                self.telemetry_factory()
                if self.telemetry_factory is not None
                else None
            )
            engine = ServingEngine(
                deployment,
                max_concurrency=self.max_concurrency or config.batch_size,
                telemetry=hub,
            )
            trace = fixed_batch_trace(
                config.batch_size, config.input_tokens, config.output_tokens
            )
            result = engine.run(trace)
            if hub is not None and result.telemetry is not None:
                self.telemetry_log.append(
                    {
                        "model": deployment.model.name,
                        "hardware": deployment.hardware.name,
                        "framework": deployment.framework.name,
                        "devices": deployment.num_devices,
                        "batch_size": config.batch_size,
                        "input_tokens": config.input_tokens,
                        "output_tokens": config.output_tokens,
                        "telemetry": result.telemetry.to_json_dict(),
                    }
                )
            return result.to_metrics()
        except OutOfMemoryError:
            return InferenceMetrics.out_of_memory(
                config.batch_size, config.input_tokens, config.output_tokens
            )

    def run_sweep(
        self,
        table: ResultTable,
        deployment: Deployment,
        configs: list[GenerationConfig],
        **extra_keys: object,
    ) -> ResultTable:
        """Append one row per workload config, tagged with ``extra_keys``."""
        for config in configs:
            metrics = self.run_point(deployment, config)
            keys = {
                "model": deployment.model.name,
                "hardware": deployment.hardware.name,
                "framework": deployment.framework.name,
                "devices": deployment.num_devices,
                "batch_size": config.batch_size,
                "input_tokens": config.input_tokens,
                "output_tokens": config.output_tokens,
                **extra_keys,
            }
            values = {
                "throughput_tokens_per_s": metrics.throughput_tokens_per_s,
                "ttft_s": metrics.ttft_s,
                "itl_s": metrics.itl_s if metrics.itl_s != float("inf") else 0.0,
                "e2e_s": (
                    metrics.end_to_end_latency_s
                    if metrics.end_to_end_latency_s != float("inf")
                    else 0.0
                ),
                "oom": 1.0 if metrics.oom else 0.0,
            }
            if metrics.average_power_w is not None:
                values["power_w"] = metrics.average_power_w
                values["tokens_per_s_per_w"] = metrics.perf_per_watt or 0.0
            table.add(keys, values)
        return table

    def paper_grid(
        self,
        models: list[str],
        hardwares: list[str],
        frameworks: list[str],
        lengths: tuple[int, ...] = (128, 1024),
        batch_sizes: tuple[int, ...] = (1, 16, 32, 64),
        table_name: str = "grid",
    ) -> ResultTable:
        """The paper's standard grid, skipping unsupported pairs."""
        table = ResultTable(name=table_name)
        for hw_name in hardwares:
            for fw_name in frameworks:
                framework = get_framework(fw_name)
                if not framework.supports_hardware(hw_name):
                    continue
                for model_name in models:
                    dep = self.deployment(model_name, hw_name, fw_name)
                    configs = [
                        GenerationConfig(length, length, bs)
                        for length in lengths
                        for bs in batch_sizes
                    ]
                    self.run_sweep(table, dep, configs)
        return table
