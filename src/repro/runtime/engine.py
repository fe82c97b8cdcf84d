"""Discrete-event serving engine.

The engine executes a request trace against a deployment the way a real
serving stack iterates: admit -> prefill -> decode steps -> retire, with
per-iteration costs supplied by the analytical phase model
(:mod:`repro.perf.phases`).  It produces per-request TTFT/latency, the
paper's aggregate metrics, and a power estimate integrated over phases.

The engine and the closed-form :class:`~repro.perf.estimator
.InferenceEstimator` are two views of the same model; tests cross-check
them on the paper's fixed-shape workloads.

Running-set state lives on the request objects alone.  Iteration
coalescing: a decode span advances every running sequence in lockstep,
evaluating the step cost at the span's mean context (the midpoint rule).
That is exact only while the span stays between the step model's
breakpoints, the compute/memory crossover and the memory-tier spill; a
span that crosses one is priced at its midpoint.  Each span is bounded by
the *next scheduling event* (the caller's horizon, the next future
arrival, a completion) so saturated runs cost O(events) instead of
O(tokens); an arrived-but-blocked queue head cannot shorten a span, since
only a retirement (which ends the span anyway) can unblock admission.
Because no request finishes mid-span, the default admission policy
commits a span in one O(batch) pass over the running requests.
Optimistic admission grows KV token by token and may preempt mid-span,
so it commits token by token instead.

Each prefill chunk prices one :class:`~repro.perf.phases.StepCost` and
each decode span one step's time and watts; both are charged inline under
the straggler ``cost_scale`` by one rule (time scaled, watts unchanged,
energy = time x watts), in :meth:`EngineRun._run_prefill` and
:meth:`EngineRun._decode_span`; a profiler reads the committed step.

Execution is resumable: :meth:`ServingEngine.start` returns an
:class:`EngineRun` whose ``submit``/``step`` pair lets a caller interleave
request injection with engine iterations.  The engine is configuration;
the run owns every step.  :meth:`ServingEngine.run` is the classic
submit-everything-then-drain wrapper; in the cluster simulator
(:mod:`repro.cluster`) each replica is an ``EngineRun`` subclass, and the
simulator routes arrivals between steps.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from math import ceil

from repro.core.metrics import InferenceMetrics
from repro.core.request import GenerationRequest, RequestState, mean_itl_s
from repro.core.stats import mean
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, record_latencies
from repro.obs.profiler import ProfileReport, StepProfiler
from repro.obs.telemetry import TelemetryHub, TelemetrySnapshot, trace_alerts
from repro.obs.timeline import RequestTimeline, build_timelines
from repro.obs.tracer import EventTracer
from repro.perf.kernel import get_kernel
from repro.perf.phases import Deployment, step_model
from repro.runtime.paged_kv import (
    AllocationError,
    OutOfMemoryError,
    PagedKVAllocator,
)
from repro.runtime.scheduler import (
    ContinuousBatchingScheduler,
    Scheduler,
    SchedulerStats,
    StaticBatchingScheduler,
)

__all__ = ["EngineResult", "EngineRun", "ServingEngine"]

_MAX_ITERATIONS = 10_000_000


@dataclass
class EngineResult:
    """Outcome of one engine run over a trace.

    Derived aggregates (``total_tokens``, ``mean_ttft_s``, ``mean_itl_s``,
    ``timelines()``) are cached on first access — dashboards and reports
    read them repeatedly and the request list is fixed once the result is
    assembled.
    """

    requests: list[GenerationRequest]
    total_time_s: float
    iterations: int
    decode_steps: int
    average_power_w: float
    scheduler_stats: SchedulerStats
    oom: bool = False
    metrics: MetricsSnapshot | None = None  # registry snapshot (traced runs)
    profile: ProfileReport | None = None  # cost attribution (profiled runs)
    telemetry: TelemetrySnapshot | None = None  # streaming series + alerts

    @cached_property
    def total_tokens(self) -> int:
        return sum(r.input_tokens + r.generated_tokens for r in self.requests)

    @property
    def throughput_tokens_per_s(self) -> float:
        """Eq. 2 aggregate: all (input + output) tokens over the makespan."""
        if self.oom or self.total_time_s <= 0:
            return 0.0
        return self.total_tokens / self.total_time_s

    @cached_property
    def mean_ttft_s(self) -> float:
        """Mean TTFT over requests that produced a first token.

        NaN when no request did (e.g. an OOM point inside a sweep) so
        aggregation over mixed sweeps never raises; callers that need a
        hard failure can check ``math.isnan``.
        """
        return mean(
            r.ttft_s for r in self.requests if r.first_token_time is not None
        )

    def timelines(self) -> list[RequestTimeline]:
        """Per-request milestone timelines (arrival order)."""
        return list(self._timelines)

    @cached_property
    def _timelines(self) -> list[RequestTimeline]:
        return build_timelines(self.requests)

    @cached_property
    def mean_itl_s(self) -> float:
        """Mean inter-token gap over all decode intervals (Eq. 1 analogue)."""
        return mean_itl_s(self.requests)

    def to_metrics(self) -> InferenceMetrics:
        """Collapse to the paper's record shape for uniform workloads."""
        if self.oom:
            first = self.requests[0]
            return InferenceMetrics.out_of_memory(
                len(self.requests), first.input_tokens, first.output_tokens
            )
        first = self.requests[0]
        return InferenceMetrics(
            batch_size=len(self.requests),
            input_tokens=first.input_tokens,
            output_tokens=first.output_tokens,
            ttft_s=self.mean_ttft_s,
            end_to_end_latency_s=self.total_time_s,
            itl_s=self.mean_itl_s,
            average_power_w=self.average_power_w,
        )


class ServingEngine:
    """Simulates a serving stack for one deployment.

    The engine is configuration: it checks that the weights fit, builds
    each run's scheduler and KV pool, and hands out :class:`EngineRun`
    objects, which own every step.
    """

    def __init__(
        self,
        deployment: Deployment,
        max_concurrency: int | None = None,
        coalesce: bool = True,
        optimistic: bool = False,
        tracer: EventTracer | None = None,
        kernel=None,
        profile: bool = False,
        telemetry: TelemetryHub | None = None,
    ) -> None:
        """``max_concurrency`` caps the running batch; ``None`` means 1024
        and values below 1 raise ``ValueError``.

        ``optimistic=True`` enables vLLM's real admission policy:
        reserve only prompt blocks and preempt-and-recompute when the KV
        pool runs dry mid-decode (requires a paged deployment).  Because
        that policy grows each request's KV allocation token by token,
        optimistic runs commit decode spans token by token.

        ``tracer`` (an :class:`~repro.obs.tracer.EventTracer`; ``None``,
        the default, traces nothing) records span/instant events and
        metric histograms as the run executes; results are bit-identical
        either way.

        ``profile=True`` attaches a
        :class:`~repro.obs.profiler.StepProfiler` to each run: every
        committed step is attributed to its roofline components and the
        result carries a :class:`~repro.obs.profiler.ProfileReport`.
        Off (the default) each run's ``profiler`` is ``None``, every
        ``record_*`` call is skipped, and results are bit-identical.

        ``kernel`` supplies the per-iteration step costs; the default is
        the deployment's shared :class:`~repro.perf.kernel.StepCostKernel`
        (memoized step costs).  Pass a
        :class:`~repro.perf.kernel.DirectStepCost` to force un-memoized
        ``phases.py`` evaluation (the test reference).

        ``telemetry`` (default ``None``, no hub) attaches a streaming
        :class:`~repro.obs.telemetry.TelemetryHub`: runs sample
        queue/batch/KV gauges per iteration, record completions against
        the hub's SLO, and evaluate burn-rate alerts on the hub's tick
        cadence.  Results stay bit-identical either way — only the
        result's ``telemetry`` snapshot differs.  Hubs carry state; pass
        a fresh one per run."""
        if max_concurrency is not None and max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if optimistic and not deployment.kv_spec.paged:
            raise ValueError("optimistic admission requires a paged KV spec")
        self.deployment = deployment
        self.kernel = kernel if kernel is not None else get_kernel(deployment)
        self.tracer = tracer
        capacity = deployment.capacity
        if not capacity.weights_fit:
            raise OutOfMemoryError(
                f"{deployment.model.name} weights "
                f"({capacity.weight_bytes / 1024**3:.1f} GiB) exceed "
                f"{deployment.hardware.name} x{deployment.num_devices} usable "
                f"memory ({capacity.usable_bytes / 1024**3:.1f} GiB)"
            )
        self.max_concurrency = 1024 if max_concurrency is None else max_concurrency
        self.coalesce = coalesce
        self.optimistic = optimistic
        self.profile = profile
        self.telemetry = telemetry

    def _make_scheduler(self) -> Scheduler:
        """A fresh scheduler over a KV pool sized to the deployment's KV
        budget.  A contiguous deployment's pool has 1-token blocks, so its
        conservative admission reserves exactly the final context."""
        capacity = self.deployment.capacity
        budget_tokens = capacity.kv_budget_tokens
        if budget_tokens < 1:
            raise OutOfMemoryError(
                f"no KV budget left on {self.deployment.hardware.name} after "
                f"{capacity.weight_bytes / 1024**3:.1f} GiB of weights"
            )
        kv_spec = self.deployment.kv_spec
        if self.tracer is not None:
            self.tracer.instant(
                "kv_alloc",
                "kv_budget",
                ts_s=0.0,
                budget_tokens=budget_tokens,
                weight_gib=round(capacity.weight_bytes / 1024**3, 3),
                paged=int(kv_spec.paged),
            )
        block_size = kv_spec.block_size if kv_spec.paged else 1
        total_blocks = budget_tokens // block_size
        if total_blocks < 1:
            raise OutOfMemoryError("KV budget smaller than one block")
        allocator = PagedKVAllocator(total_blocks, block_size, tracer=self.tracer)
        cls = (
            ContinuousBatchingScheduler
            if self.deployment.framework.continuous_batching
            else StaticBatchingScheduler
        )
        return cls(
            allocator,
            self.max_concurrency,
            optimistic=self.optimistic,
            tracer=self.tracer,
        )

    # ------------------------------------------------------------------

    def start(
        self, pressure: Callable[[], bool] | None = None
    ) -> "EngineRun":
        """Begin a resumable run with an empty queue (see :class:`EngineRun`).

        ``pressure`` is an optional callback the run consults before
        coalescing a decode span: when it returns True, more requests may
        still be submitted at times the caller cannot bound with a step
        ``horizon`` (e.g. disaggregated KV handoffs spawned by another
        replica's in-flight work), so the run keeps single-step iteration
        boundaries — exactly as it would if those requests already sat in
        its waiting queue."""
        return EngineRun(self, pressure=pressure)

    def run(self, trace: list[GenerationRequest]) -> EngineResult:
        """Execute a trace to completion; raises OutOfMemoryError only when
        a request can never fit even on an idle engine.  Each request is
        labeled with its position in ``trace``."""
        if not trace:
            raise ValueError("trace is empty")
        for index, request in enumerate(trace):
            request.request_id = index
        run = self.start()
        for request in sorted(trace, key=lambda r: r.arrival_time):
            run.submit(request)
        while run.has_work:
            run.step()
        return run.result(requests=list(trace))


class EngineRun:
    """Resumable execution state of one :class:`ServingEngine`, and the
    owner of its steps.

    Holds everything a run accumulates — scheduler, simulation clock,
    energy, iteration counters, metrics registry — so callers can
    interleave :meth:`submit` and :meth:`step`.  ``ServingEngine.run`` is
    the submit-all-then-drain wrapper; the cluster simulator steps many
    runs against a shared arrival stream (each replica *is* a run),
    routing each request when the fleet has caught up to its arrival
    time.  The running set is the scheduler's list of request objects; a
    decode span commits through :meth:`_commit_span` (one pass that adds
    the span's steps to every request) or, under optimistic admission,
    through :meth:`_commit_tokens` (token by token, growing KV and
    preempting as it goes).

    ``horizon`` on :meth:`step` caps *voluntary* idle jumps and bounds
    coalesced decode spans: an idle
    engine normally fast-forwards to its next queued arrival, but a
    cluster replica must not skip past a routing instant it cannot yet
    see.  Committed work (a prefill pass, a decode span) may still end
    past the horizon — events are atomic, exactly as a newly arrived
    request waits out the in-flight iteration on a real engine.
    """

    def __init__(
        self,
        engine: ServingEngine,
        pressure: Callable[[], bool] | None = None,
    ) -> None:
        deployment = engine.deployment
        self.deployment = deployment
        self.kernel = engine.kernel
        self.coalesce = engine.coalesce
        self.optimistic = engine.optimistic
        self.scheduler = engine._make_scheduler()
        self.tracer = engine.tracer
        self._registry: MetricsRegistry | None = (
            MetricsRegistry() if engine.tracer is not None else None
        )
        self.telemetry = engine.telemetry
        self._pressure = pressure
        self.profiler: StepProfiler | None = (
            StepProfiler(deployment, tracer=engine.tracer)
            if engine.profile
            else None
        )
        # Group power at zero utilization: what an idle fast-forward draws.
        self.idle_power_w = step_model(deployment).power_model.group_power_w(0.0)
        self.now = 0.0
        # Control-plane hook: every committed step cost is multiplied by
        # this factor.  1.0 (the default) is checked by identity before any
        # arithmetic, so un-faulted runs stay bit-identical; a fault
        # schedule sets it >1.0 for the duration of a straggler window.
        self.cost_scale = 1.0
        self.iterations = 0
        self.decode_steps = 0
        self.energy_j = 0.0
        self.idle_s = 0.0
        self.submitted: list[GenerationRequest] = []
        # Work not yet done: prefill still owed plus output still to emit.
        # A plain counter, kept at every submit, token, prefill and
        # preemption event, so a router reads it in O(1) per replica;
        # :meth:`outstanding_tokens_scan` recomputes it from scheduler
        # state, and tests assert the two agree after every step.
        self.outstanding_tokens = 0
        # ``scheduler.has_work`` as one attribute read for the cluster's
        # runnable heap: work only arrives by :meth:`submit` and only
        # leaves when :meth:`step` retires requests.
        self.has_work = False

    # ------------------------------------------------------------------

    def submit(self, request: GenerationRequest) -> None:
        """Queue a request; callers submit in nondecreasing arrival order."""
        self.scheduler.submit(request)
        self.submitted.append(request)
        self.has_work = True
        self.outstanding_tokens += (
            request.prefill_tokens_needed
            + request.output_tokens
            - request.generated_tokens
        )

    def step(self, horizon: float | None = None) -> list[GenerationRequest]:
        """Execute one engine iteration; returns the requests it retired."""
        scheduler = self.scheduler
        if not self.has_work:
            raise RuntimeError("step() called on a drained run")
        now = self.now
        if horizon is not None and horizon <= now:
            raise ValueError(f"horizon {horizon} is not ahead of t={now}")
        self.iterations += 1
        if self.iterations > _MAX_ITERATIONS:
            raise RuntimeError("engine exceeded the iteration safeguard")
        if self.tracer is not None or self.telemetry is not None:
            self._sample_state(self.telemetry)

        # FIFO admission stops at a waiting head that has not arrived, so
        # only an arrived head can admit anything.
        waiting = scheduler.waiting
        if waiting and waiting[0].arrival_time <= now:
            admitted = scheduler.admit(now)
            if admitted:
                admitted_ids = {id(r) for r in admitted}
                decoding = [
                    r
                    for r in scheduler.running
                    if id(r) not in admitted_ids
                    and r.state == RequestState.DECODING
                    and r.generated_tokens < r.output_tokens
                ]
                self._run_prefill(admitted, decoding)
                return self._retire()  # 1-token requests

        running = scheduler.running
        if running:
            return self._decode_span(running, horizon)
        next_arrival = scheduler.next_arrival()
        if next_arrival > now:
            # Idle until the next arrival (or the caller's horizon).
            target = next_arrival if horizon is None else min(next_arrival, horizon)
            span = target - now
            idle_j = span * self.idle_power_w
            self.energy_j += idle_j
            self.idle_s += span
            if self.profiler is not None:
                self.profiler.record_idle(now, span, idle_j)
            if self.tracer is not None:
                self.tracer.complete("engine", "idle", now, span)
            self.now = target
            return []
        raise OutOfMemoryError(
            "a queued request cannot fit even on an idle engine "
            f"({self.deployment.hardware.name} x"
            f"{self.deployment.num_devices})"
        )

    def _run_prefill(
        self,
        admitted: list[GenerationRequest],
        decoding: list[GenerationRequest],
    ) -> None:
        """Prefill newly admitted prompts.

        With chunked prefill (vLLM chunked prefill / DS-MII Dynamic
        SplitFuse / TRT-LLM in-flight batching), the prompt is processed
        in chunks and already-decoding streams advance one token per
        chunk instead of stalling for the whole prefill — the mechanism
        behind those frameworks' smoother tail ITL under load.

        ``decoding`` lists the rider requests: running streams admitted
        before this pass that still owe output.  Each chunk is one step,
        charged by the rule :meth:`_decode_span` applies to a span.
        """
        batch = len(admitted)
        riders = len(decoding)
        # Preempted requests re-prefill their full context (recompute).
        max_input = max(r.prefill_tokens_needed for r in admitted)
        # Captured before any mutation: the prefill work this pass retires.
        owed = sum(r.prefill_tokens_needed for r in admitted)
        fw = self.deployment.framework
        chunks = 1
        if fw.chunked_prefill and riders:
            per_chunk_len = max(1, fw.prefill_chunk_tokens // max(1, batch))
            chunks = -(-max_input // per_chunk_len)
        chunk_len = -(-max_input // chunks)

        now = self.now
        kernel = self.kernel
        cost_scale = self.cost_scale
        tracer = self.tracer
        profiler = self.profiler
        for chunk in range(chunks):
            cost = kernel.prefill_cost(batch, chunk_len)
            breakdown = cost.breakdown
            if cost_scale != 1.0:
                breakdown = breakdown.scaled(cost_scale)
            energy_j = breakdown.total_s * cost.power_w
            self.energy_j += energy_j
            if profiler is not None:
                profiler.record_prefill(
                    now, breakdown, cost.flops, cost.bytes_moved,
                    batch, chunk_len, energy_j, admitted,
                )
            if tracer is not None:
                tracer.complete(
                    "prefill",
                    "prefill" if chunks == 1 else f"prefill_chunk_{chunk}",
                    now,
                    breakdown.total_s,
                    batch=batch,
                    tokens=chunk_len,
                    riders=riders,
                )
                tracer.counter(
                    "power_sample", "power_w", ts_s=now, watts=round(cost.power_w, 3)
                )
            now += breakdown.total_s
            if tracer is not None:
                tracer.advance(now)
            # Decoding streams ride along with the chunk (their token is
            # folded into the fused chunk's batch at negligible marginal
            # cost — the SplitFuse effect).
            for request in decoding:
                if request.generated_tokens < request.output_tokens:
                    request.record_token(now)
                    self.outstanding_tokens -= 1
        for request in admitted:
            if request.generated_tokens == 0:
                request.record_token(now)  # prefill emits the first token
                self.outstanding_tokens -= 1
            else:
                # A preempted request resumed: the re-prefill recreated its
                # KV state; its next token comes from the next decode step.
                request.state = RequestState.DECODING
        self.outstanding_tokens -= owed
        self.now = now

    def _decode_span(
        self, running: list[GenerationRequest], horizon: float | None
    ) -> list[GenerationRequest]:
        """Length, price, charge and commit one decode span of the
        ``running`` batch; returns the requests it retired.

        **Length.** The span ends at the next *scheduling event*: the
        caller's ``horizon`` or the next future arrival.  An
        arrived-but-blocked head is no bound: FIFO admission stays blocked
        until a retirement, and a retirement ends the span anyway.  The
        step count to reach the bound is estimated from the current batch
        state (one :meth:`~repro.perf.kernel.StepCostKernel.decode_step`
        probe at the mean context); a span may overshoot
        the bound by part of a step, matching the atomic in-flight
        iteration a real engine finishes before admitting new work.
        ``pressure`` (work that may be injected *before* the horizon, e.g.
        disaggregated handoffs) forces single steps.  No span is longer
        than the fewest tokens any running request still owes, so no
        request finishes mid-span.

        **Price.** One step at the span's midpoint context (contexts grow
        one token per step), read as ``(total_s, power_w)`` from the
        kernel's decode row; only a profiled run fetches the whole
        :class:`~repro.perf.phases.StepCost` (equal in those two fields)
        for its profiler.  The step is charged ``steps`` times under the
        straggler ``cost_scale``: the time (and a profiled breakdown)
        scales, the watts do not (a uniform scale keeps the utilization
        ratios they come from), and the energy is span time times watts.
        ``x * 1.0`` is exact, so a one-step span is its step time.

        **Commit.** Through :meth:`_commit_span` (one pass) or, under
        optimistic admission, :meth:`_commit_tokens` (token by token).
        """
        kernel = self.kernel
        scheduler = self.scheduler
        cost_scale = self.cost_scale
        now = self.now
        batch = len(running)
        # One pass over the running set gives the span rule its bound (the
        # fewest tokens any request still owes) and the price its integer
        # context sum.
        min_remaining = running[0].output_tokens
        ctx_sum = 0
        for r in running:
            generated = r.generated_tokens
            left = r.output_tokens - generated
            if left < min_remaining:
                min_remaining = left
            ctx_sum += r.input_tokens + generated

        steps = 1
        if (
            min_remaining > 1
            and self.coalesce
            and (self._pressure is None or not self._pressure())
        ):
            limit = horizon
            if scheduler.waiting:
                at = scheduler.next_future_arrival(now)
                if at is not None and (limit is None or at < limit):
                    limit = at
            if limit is None:
                steps = min_remaining
            else:
                probe_ctx = round(ctx_sum / batch)
                est = kernel.decode_step(batch, probe_ctx if probe_ctx > 1 else 1)[0]
                if cost_scale != 1.0:
                    est *= cost_scale
                k = ceil((limit - now) / est)
                if k < 1:
                    k = 1
                steps = min_remaining if min_remaining < k else k

        span_ctx = round(ctx_sum / batch + (steps - 1) / 2.0)
        if span_ctx < 1:
            span_ctx = 1
        profiler = self.profiler
        if profiler is None:
            step_s, power_w = kernel.decode_step(batch, span_ctx)
        else:
            cost = kernel.decode_cost(batch, span_ctx)
            step_s, power_w = cost.breakdown.total_s, cost.power_w
        if cost_scale != 1.0:
            step_s *= cost_scale  # the scaled breakdown's total
        span_s = step_s * float(steps)
        energy_j = span_s * power_w
        self.energy_j += energy_j
        if profiler is not None:
            step_bd = cost.breakdown
            if cost_scale != 1.0:
                step_bd = step_bd.scaled(cost_scale)
            profiler.record_decode(
                now, step_bd, cost.flops, cost.bytes_moved,
                batch, steps, energy_j, running,
            )
        tracer = self.tracer
        if tracer is not None:
            tracer.complete(
                "decode_span",
                "decode",
                now,
                span_s,
                batch=batch,
                steps=steps,
                span_ctx=span_ctx,
            )
            tracer.counter(
                "power_sample", "power_w", ts_s=now, watts=round(power_w, 3)
            )
        if self.optimistic:
            self._commit_tokens(running, steps, step_s)
        else:
            self._commit_span(running, steps, step_s)
        self.now = now + span_s
        self.decode_steps += steps
        if steps < min_remaining:
            return []  # the span rule: nothing can have finished
        return self._retire()

    def _commit_span(
        self, running: list[GenerationRequest], steps: int, step_s: float
    ) -> None:
        """Advance every running request ``steps`` tokens in one pass.

        The span rule (``steps <= min_remaining``) guarantees no request
        finishes mid-span, so each finisher's last token lands at the span
        end — the same float expression :meth:`_commit_tokens` gives it.
        """
        last_time = self.now + step_s * steps
        if self.tracer is not None:
            self.tracer.advance(last_time)
        for request in running:
            generated = request.generated_tokens + steps
            request.generated_tokens = generated
            if generated == request.output_tokens:
                request.finish_time = last_time
                request.state = RequestState.FINISHED
        self.outstanding_tokens -= len(running) * steps

    def _commit_tokens(
        self, running: list[GenerationRequest], steps: int, step_s: float
    ) -> None:
        """Commit a span token by token.

        The engine uses this only under optimistic admission, where each
        token grows its request's KV allocation and may preempt newer
        requests mid-span when the pool runs dry.
        """
        now = self.now
        tracer = self.tracer
        active = list(running)
        for i in range(steps):
            token_time = now + step_s * (i + 1)
            if tracer is not None:
                tracer.advance(token_time)
            for request in list(active):
                if request not in active:
                    continue  # preempted earlier within this step
                self._append_or_preempt(active, request)
                request.record_token(token_time)
                self.outstanding_tokens -= 1

    def _append_or_preempt(
        self, active: list[GenerationRequest], request: GenerationRequest
    ) -> None:
        """Grow ``request``'s KV by one token, evicting newer requests
        (recompute preemption) until the pool has room."""
        scheduler = self.scheduler
        while True:
            try:
                scheduler.allocator.append_token(request)
                return
            except AllocationError:
                victim = self._choose_victim(request)
                if victim is None:
                    raise OutOfMemoryError(
                        f"request {request.request_id} cannot grow and no "
                        "victim remains to preempt"
                    )
                pre = (
                    victim.prefill_tokens_needed
                    if victim.state == RequestState.PREFILLING
                    else 0
                )
                scheduler.preempt(victim)
                # Back in the queue the victim owes a full re-prefill of
                # its restart context (beyond whatever it owed running).
                self.outstanding_tokens += victim.prefill_tokens_needed - pre
                if victim in active:
                    active.remove(victim)

    def _choose_victim(
        self, protect: GenerationRequest
    ) -> GenerationRequest | None:
        """Newest running request other than ``protect`` (vLLM evicts the
        most recently admitted sequence first)."""
        for candidate in reversed(self.scheduler.running):
            if candidate is not protect and not candidate.is_finished:
                return candidate
        return None

    def _retire(self) -> list[GenerationRequest]:
        """Retire finished requests and record them with the observers."""
        scheduler = self.scheduler
        retired = scheduler.retire_finished()
        self.has_work = scheduler.has_work
        self._observe_retired(retired)
        return retired

    def result(
        self, requests: list[GenerationRequest] | None = None
    ) -> EngineResult:
        """Finalize the run (close gauge series) and assemble the result."""
        if self.tracer is not None:
            self._sample_state(None)  # close the gauge series
        telemetry_snapshot: TelemetrySnapshot | None = None
        if self.telemetry is not None:
            # Closeout: flush buffered completions and settle alerts at
            # the run's horizon.
            trace_alerts(self.tracer, self.telemetry.finish(self.now))
            telemetry_snapshot = self.telemetry.snapshot()
        resolved = list(requests) if requests is not None else list(self.submitted)
        return EngineResult(
            requests=resolved,
            total_time_s=self.now,
            iterations=self.iterations,
            decode_steps=self.decode_steps,
            average_power_w=(self.energy_j / self.now if self.now > 0 else 0.0),
            scheduler_stats=self.scheduler.stats,
            metrics=self._final_snapshot(),
            profile=(
                self.profiler.report(self.now, resolved)
                if self.profiler is not None
                else None
            ),
            telemetry=telemetry_snapshot,
        )

    # ------------------------------------------------------------------
    # Router-facing state summaries (cheap, read-only).

    def outstanding_tokens_scan(self) -> int:
        """Reference O(n) recomputation of :attr:`outstanding_tokens`."""
        total = 0
        for r in self.scheduler.waiting:
            total += r.prefill_tokens_needed + r.output_tokens - r.generated_tokens
        for r in self.scheduler.running:
            total += r.output_tokens - r.generated_tokens
            if r.state == RequestState.PREFILLING:
                total += r.prefill_tokens_needed
        return total

    @property
    def queue_depth(self) -> int:
        return len(self.scheduler.waiting)

    @property
    def kv_used_fraction(self) -> float:
        allocator = self.scheduler.allocator
        return allocator.used_tokens / allocator.capacity_tokens

    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # Observability helpers: the gauge registry on traced runs, the
    # telemetry hub when one is attached.

    def _sample_state(self, hub: TelemetryHub | None) -> None:
        """One sample of queue depth, batch size and KV occupancy.

        Written to the gauge registry on traced runs and, given a
        ``hub``, to the hub followed by a throttled budget tick.
        """
        now = self.now
        scheduler = self.scheduler
        queue = scheduler.arrived_count(now)
        batch = len(scheduler.running)
        kv = self.kv_used_fraction
        registry = self._registry
        if registry is not None:
            self.tracer.advance(now)
            registry.gauge("queue_depth").set(queue, ts_s=now)
            registry.gauge("batch_size").set(batch, ts_s=now)
            registry.gauge("kv_occupancy").set(kv, ts_s=now)
        if hub is not None:
            hub.sample("engine.queue_depth", now, float(queue))
            hub.sample("engine.batch_size", now, float(batch))
            hub.sample("engine.kv_occupancy", now, kv)
            if now - hub.last_tick_s >= hub.tick_interval_s:
                trace_alerts(self.tracer, hub.tick(now))

    def _observe_retired(self, done: list[GenerationRequest]) -> None:
        """Record per-request latency histograms and SLO completions."""
        if not done:
            return
        if self._registry is not None:
            record_latencies(self._registry, done)
        if self.telemetry is not None:
            for request in done:
                self.telemetry.record_request(request)

    def _final_snapshot(self) -> MetricsSnapshot | None:
        registry = self._registry
        if registry is None:
            return None
        stats = self.scheduler.stats
        registry.counter("admitted").inc(stats.admitted)
        registry.counter("finished").inc(stats.finished)
        registry.counter("preemptions").inc(stats.preemptions)
        registry.counter("decode_steps").inc(self.decode_steps)
        return registry.snapshot()
