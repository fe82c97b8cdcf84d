"""Serving runtime: engine, schedulers, KV allocators, memory, workloads.

Observability: every component accepts an optional
:class:`repro.obs.EventTracer` (``None`` by default, tracing nothing) and
emits admit/prefill/decode/preempt/kv events plus TTFT/ITL histograms
when given one.
"""

from repro.runtime.engine import EngineResult, EngineRun, ServingEngine
from repro.runtime.loadgen import (
    LoadReport,
    ServiceLevelObjective,
    TenantReport,
    find_max_sustainable_rate,
    run_load_test,
    summarize_requests,
)
from repro.runtime.memory_manager import MemoryManager, OutOfMemoryError
from repro.runtime.paged_kv import (
    AllocationError,
    ContiguousKVAllocator,
    KVAllocator,
    PagedKVAllocator,
)
from repro.runtime.scheduler import (
    ContinuousBatchingScheduler,
    Scheduler,
    SchedulerStats,
    StaticBatchingScheduler,
)
from repro.runtime.workload import (
    TraceSummary,
    blended_trace,
    fixed_batch_trace,
    open_loop_trace,
    poisson_trace,
    shared_prefix_trace,
)

__all__ = [
    "EngineResult",
    "EngineRun",
    "LoadReport",
    "ServiceLevelObjective",
    "TenantReport",
    "find_max_sustainable_rate",
    "run_load_test",
    "summarize_requests",
    "ServingEngine",
    "MemoryManager",
    "OutOfMemoryError",
    "AllocationError",
    "ContiguousKVAllocator",
    "KVAllocator",
    "PagedKVAllocator",
    "ContinuousBatchingScheduler",
    "Scheduler",
    "SchedulerStats",
    "StaticBatchingScheduler",
    "TraceSummary",
    "blended_trace",
    "fixed_batch_trace",
    "open_loop_trace",
    "poisson_trace",
    "shared_prefix_trace",
]
