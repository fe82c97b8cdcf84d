"""Shared helpers for the per-figure reproduction modules."""

from __future__ import annotations

from repro.bench.runner import BenchmarkRunner
from repro.core.request import GenerationConfig
from repro.core.results import ResultTable
from repro.perf.parallelism import ParallelismPlan

__all__ = ["sweep_batches", "GenerationConfig"]


def sweep_batches(
    runner: BenchmarkRunner,
    table: ResultTable,
    model: str,
    hardware: str,
    framework: str,
    batch_sizes: tuple[int, ...] = (1, 16, 32, 64),
    lengths: tuple[int, ...] = (128, 1024),
    plan: ParallelismPlan | None = None,
    **extra_keys: object,
) -> ResultTable:
    """Standard paper sweep for one (model, hardware, framework) triple."""
    dep = runner.deployment(model, hardware, framework, plan=plan)
    configs = [
        GenerationConfig(length, length, bs)
        for length in lengths
        for bs in batch_sizes
    ]
    return runner.run_sweep(table, dep, configs, **extra_keys)
