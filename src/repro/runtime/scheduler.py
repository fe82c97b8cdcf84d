"""Request schedulers: continuous (in-flight) batching vs static batching.

Continuous batching (vLLM / TRT-LLM / DS-MII, paper Section IV-A1) admits
new requests into the running batch whenever KV capacity and the
max-concurrency limit allow, "even if the requests arrive at different
times or have different input context lengths".  Static batching
(llama.cpp) admits a full batch only when the engine is idle and holds it
to completion.

The running set is a plain list of request objects in admission order;
the engine reads and commits progress on those objects directly.  A
sorted list of waiting arrival times keeps the engine's per-iteration
queue questions O(log n) instead of O(n): ``next_arrival`` is its head,
``arrived_count`` a bisect.  Submissions arrive in nondecreasing order
so maintenance is an O(1) append in the common case, and preemptions
re-insert via ``insort``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass

from repro.core.request import GenerationRequest, RequestState
from repro.obs.tracer import EventTracer
from repro.runtime.paged_kv import PagedKVAllocator

__all__ = ["SchedulerStats", "Scheduler", "ContinuousBatchingScheduler", "StaticBatchingScheduler"]


@dataclass
class SchedulerStats:
    admitted: int = 0
    finished: int = 0
    admission_rounds: int = 0
    preemptions: int = 0


class Scheduler:
    """Base scheduler: a waiting queue plus the running set.

    ``optimistic=True`` switches admission to vLLM's real policy:
    reserve only the prompt's blocks and grow on demand; the engine then
    handles pool exhaustion by preempting (recompute) via :meth:`preempt`.
    The engine allows it only on a paged deployment.

    ``hold_batch`` makes admission wait for an empty running set, so a
    batch is admitted whole and held to completion (static batching).
    """

    hold_batch = False

    def __init__(
        self,
        allocator: PagedKVAllocator,
        max_concurrency: int,
        optimistic: bool = False,
        tracer: EventTracer | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        self.allocator = allocator
        self.max_concurrency = max_concurrency
        self.optimistic = optimistic
        self.tracer = tracer
        self.waiting: deque[GenerationRequest] = deque()
        self.running: list[GenerationRequest] = []
        self.stats = SchedulerStats()
        # Sorted arrival times of everything in ``waiting`` (parallel
        # multiset, not parallel order): submissions arrive nondecreasing
        # so the common-case update is an O(1) append.
        self._arrivals: list[float] = []

    def submit(self, request: GenerationRequest) -> None:
        if request.state != RequestState.QUEUED:
            raise ValueError(f"request {request.request_id} is not queued")
        self.waiting.append(request)
        arrivals = self._arrivals
        at = request.arrival_time
        if not arrivals or at >= arrivals[-1]:
            arrivals.append(at)
        else:
            insort(arrivals, at)

    @property
    def has_work(self) -> bool:
        return bool(self.waiting) or bool(self.running)

    def next_arrival(self) -> float:
        """Earliest arrival time among waiting requests, O(1).

        Exact equivalent of ``min(r.arrival_time for r in waiting)``:
        the sorted multiset holds precisely the waiting set's arrival
        times (tests assert the equivalence under preemption churn).
        """
        return self._arrivals[0]

    def arrived_count(self, now: float) -> int:
        """How many waiting requests have ``arrival_time <= now``, O(log n)."""
        return bisect_right(self._arrivals, now)

    def next_future_arrival(self, now: float) -> float | None:
        """Earliest waiting arrival strictly after ``now`` (None if none).

        The span-coalescing bound: already-arrived requests cannot bound a
        decode span (FIFO admission stays blocked until a retirement, which
        ends the span anyway), but a future arrival is a scheduling event
        the span must not skip.
        """
        arrivals = self._arrivals
        i = bisect_right(arrivals, now)
        return arrivals[i] if i < len(arrivals) else None

    def _pop_head(self) -> GenerationRequest:
        """Remove and return the waiting head, maintaining the arrival index."""
        request = self.waiting.popleft()
        arrivals = self._arrivals
        # Any slot holding an equal float is interchangeable.
        del arrivals[bisect_left(arrivals, request.arrival_time)]
        return request

    def _admission_tokens(self, request: GenerationRequest) -> int:
        """Tokens whose blocks must be free to admit this request."""
        if self.optimistic:
            return request.prefill_tokens_needed
        return request.input_tokens + request.output_tokens

    def _can_admit(self, request: GenerationRequest) -> bool:
        return self.allocator.can_admit(self._admission_tokens(request))

    def _admit_one(self, request: GenerationRequest, now: float) -> None:
        final_ctx = request.input_tokens + request.output_tokens
        prompt_ctx = request.prefill_tokens_needed
        self.allocator.admit(
            request, prompt_ctx, final_ctx, optimistic=self.optimistic
        )
        request.state = RequestState.PREFILLING
        if request.admit_time is None:
            request.admit_time = now
        self.running.append(request)
        self.stats.admitted += 1
        if self.tracer is not None:
            self.tracer.instant(
                "admit",
                "admit" if request.preemptions == 0 else "readmit",
                ts_s=now,
                request_id=request.request_id,
                prefill_tokens=prompt_ctx,
                queue_depth=len(self.waiting),
                running=len(self.running),
            )

    def preempt(self, request: GenerationRequest) -> None:
        """Evict a running request (recompute policy): free its KV and
        requeue it at the front of the waiting queue."""
        if request not in self.running:
            raise ValueError(f"request {request.request_id} is not running")
        self.allocator.free(request)
        self.running.remove(request)
        request.mark_preempted()
        self.waiting.appendleft(request)
        insort(self._arrivals, request.arrival_time)
        self.stats.preemptions += 1
        if self.tracer is not None:
            self.tracer.instant(
                "preempt",
                "preempt",
                request_id=request.request_id,
                restart_context=request.restart_context,
                running=len(self.running),
            )

    def admit(self, now: float) -> list[GenerationRequest]:
        """Move admissible requests from waiting to running; returns them.

        FIFO: admission stops at the first waiting request that has not
        arrived or does not fit, and at ``max_concurrency`` running.
        """
        if self.hold_batch and self.running:
            return []
        admitted: list[GenerationRequest] = []
        while self.waiting and len(self.running) < self.max_concurrency:
            request = self.waiting[0]
            if request.arrival_time > now:
                break
            if not self._can_admit(request):
                break
            self._pop_head()
            self._admit_one(request, now)
            admitted.append(request)
        if admitted:
            self.stats.admission_rounds += 1
        return admitted

    def retire_finished(self) -> list[GenerationRequest]:
        """Remove finished requests from the running set and free their KV.

        One partition pass keeps the survivors in admission order.
        """
        done: list[GenerationRequest] = []
        kept: list[GenerationRequest] = []
        for request in self.running:
            (done if request.is_finished else kept).append(request)
        for request in done:
            self.allocator.free(request)
        self.stats.finished += len(done)
        self.running = kept
        return done


class ContinuousBatchingScheduler(Scheduler):
    """Admit whenever capacity allows, up to ``max_concurrency`` running."""


class StaticBatchingScheduler(Scheduler):
    """Admit a batch only when idle; hold it until every member finishes."""

    hold_batch = True
