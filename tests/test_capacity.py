"""The one capacity model: every reader agrees with it, everywhere.

:class:`repro.perf.capacity.Capacity` is the only place resident weight
bytes, the KV budget and max concurrency are computed.  These tests hold
each reader (the closed-form estimator, the sweep grid, the engine's
weight check and KV pool, and replica warm-up) to it with exact ``==``, over every
supported default-plan deployment and the TP x quantization variants of
the paper-zoo optimizer space, and hold the object itself to the
documented formula.
"""

import math

import pytest

from repro.analysis.optimize import SearchSpace
from repro.bench.runner import default_plan
from repro.control.plane import ControlPlane
from repro.core.request import GenerationConfig
from repro.frameworks.base import get_framework, list_frameworks
from repro.hardware.interconnect import p2p_time
from repro.hardware.zoo import get_hardware, list_hardware
from repro.models.kvcache import kv_bytes_per_token
from repro.models.zoo import get_model, list_models
from repro.perf.estimator import InferenceEstimator
from repro.perf.kernel import StepCostKernel
from repro.perf.phases import Deployment
from repro.runtime.engine import ServingEngine
from repro.runtime.paged_kv import OutOfMemoryError

INPUTS = (128, 1024, 4000)
OUTPUTS = (1, 512, 2048)
BATCHES = (1, 64)


def _default_plan_deployments() -> list[Deployment]:
    deps = []
    for model_name in list_models():
        model = get_model(model_name)
        for hw_name in list_hardware():
            hardware = get_hardware(hw_name)
            for fw_name in list_frameworks():
                try:
                    deps.append(
                        Deployment(
                            model, hardware, get_framework(fw_name),
                            plan=default_plan(model, hardware),
                        )
                    )
                except ValueError:
                    continue  # unsupported (Table III) or invalid plan
    return deps


def _paper_zoo_variants() -> list[Deployment]:
    """The TP x quantization deployments the paper-zoo optimizer screens."""
    space = SearchSpace(
        models=(
            "LLaMA-2-7B", "LLaMA-3-8B", "Mistral-7B", "Qwen2-7B",
            "LLaMA-2-70B", "LLaMA-3-70B", "Qwen2-72B",
        ),
        hardware=tuple(list_hardware()),
        frameworks=("vLLM", "TRT-LLM", "DeepSpeed-MII"),
        quant_schemes=("fp16", "fp8", "int8"),
        tensor_parallel=(1, 2, 4, 8),
        batch_sizes=(1,),
    )
    candidates, _ = space.enumerate_deployments()
    return [c.deployment for c in candidates]


@pytest.fixture(scope="module")
def deployments() -> list[Deployment]:
    deps = _default_plan_deployments() + _paper_zoo_variants()
    assert len(deps) > 800
    return deps


def test_capacity_matches_documented_formula(deployments):
    for dep in deployments:
        cap = dep.capacity
        weights = (
            dep.model.total_params * dep.quant.weight_bytes_per_param()
        ) * dep.framework.memory_overhead_factor
        assert cap.weight_bytes == weights
        assert cap.usable_bytes == cap.memory.usable_bytes
        assert cap.weights_fit == (weights <= cap.usable_bytes)
        assert cap.kv_budget_bytes == max(0.0, cap.usable_bytes - weights)
        raw = kv_bytes_per_token(dep.model, dep.kv_spec.precision)
        workspace = 1.0 + dep.hardware.workspace_overhead_factor
        assert cap.kv_bytes_per_token == raw * workspace
        assert cap.kv_budget_tokens == int(cap.kv_budget_bytes // (raw * workspace))
        for final in (129, 1536, 6048):
            allocated = dep.kv_spec.allocated_tokens(final, final)
            per_seq = allocated * raw * workspace
            assert cap.kv_bytes_per_sequence(final) == per_seq
            assert cap.max_concurrency(final) == int(cap.kv_budget_bytes // per_seq)


def test_estimator_and_grid_read_the_capacity_model(deployments):
    for dep in deployments:
        cap = dep.capacity
        estimator = InferenceEstimator(dep)
        grid = StepCostKernel(dep).evaluate_grid(BATCHES, INPUTS, OUTPUTS)
        for i, inp in enumerate(INPUTS):
            for j, out in enumerate(OUTPUTS):
                final = inp + out
                report = estimator.capacity(GenerationConfig(inp, out, 1))
                assert report.weight_bytes == cap.weight_bytes
                assert report.usable_bytes == cap.usable_bytes
                assert report.weights_fit == cap.weights_fit
                assert report.max_concurrency == cap.max_concurrency(final)
                assert report.kv_allocated_per_sequence_bytes == (
                    cap.kv_bytes_per_sequence(final)
                )
                cmax = cap.max_concurrency(final)
                assert grid.max_concurrency[i, j] == cmax
                for k, batch in enumerate(BATCHES):
                    oom = (
                        not cap.weights_fit
                        or cmax < 1
                        or (batch > cmax and not dep.framework.continuous_batching)
                    )
                    assert bool(grid.oom[k, i, j]) == oom


def test_engine_pool_reads_the_capacity_model(deployments):
    for dep in deployments:
        cap = dep.capacity
        try:
            engine = ServingEngine(dep)
        except OutOfMemoryError:
            assert not cap.weights_fit
            continue
        assert cap.weights_fit
        try:
            pool = engine.start().scheduler.allocator
        except OutOfMemoryError:
            block = dep.kv_spec.block_size if dep.kv_spec.paged else 1
            assert cap.kv_budget_tokens < block
            continue
        if dep.kv_spec.paged:
            block = dep.kv_spec.block_size
            assert pool.capacity_tokens == cap.kv_budget_tokens // block * block
        else:
            assert pool.block_size == 1
            assert pool.capacity_tokens == cap.kv_budget_tokens


def test_warmup_loads_the_resident_weights(deployments):
    plane = ControlPlane()
    for dep in deployments:
        expected = p2p_time(
            dep.hardware.interconnect, dep.capacity.weight_bytes / dep.num_devices
        )
        assert plane.warmup_s(dep) == expected
        assert math.isfinite(expected) and expected > 0.0


def test_capacity_is_built_once_per_deployment(deployments):
    dep = deployments[0]
    assert dep.capacity is dep.capacity
    # Equal deployments compare and hash equal whether or not either has
    # built its capacity model.
    twin = Deployment(dep.model, dep.hardware, dep.framework, dep.plan, dep.quant)
    assert twin == dep and hash(twin) == hash(dep)
    assert twin.capacity is not dep.capacity
    assert twin.capacity.kv_budget_tokens == dep.capacity.kv_budget_tokens
