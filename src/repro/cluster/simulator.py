"""Discrete-event cluster simulator: N serving replicas behind a router.

Each replica is a full :class:`~repro.runtime.engine.ServingEngine` — its
own scheduler, memory manager and paged-KV allocator — advanced as a
resumable :class:`~repro.runtime.engine.EngineRun`.  The simulator owns a
global event heap (request arrivals, disaggregated KV handoffs, control-
plane events) and interleaves replica iterations with routing decisions
under a min-clock discipline: the least-advanced working replica always
steps first, so every routing decision sees fleet state no more than one
committed iteration stale — the same information horizon a real balancing
tier has.

A 1-replica cluster reproduces a standalone ``ServingEngine.run`` bit-
identically (tested): routing degenerates to submission in arrival order,
and the ``pressure`` hook keeps iteration boundaries where the single
engine would put them.

With a :class:`~repro.cluster.disagg.DisaggregationSpec`, dedicated
prefill replicas run prompt processing only; finished prefills hand their
KV state to a decode replica after an interconnect-priced transfer delay
(:func:`~repro.cluster.disagg.kv_transfer_time`), landing as a one-token
attach pass.  TTFT is served from the prefill side, the remaining tokens
stream from the decode side.

A :class:`~repro.control.plane.ControlPlane` co-simulates resilience:
seeded faults (replica crashes, straggler windows via the engine's
``cost_scale`` hook, KV-handoff loss) replay on the same event heap,
displaced requests re-enter the router under capped exponential backoff,
and a pluggable autoscaler resizes the serving fleet on a control tick —
new replicas pay a hardware-priced weight-load warm-up before taking
traffic.  Per-replica ``fleet`` deployments make the fleet heterogeneous;
load-aware routing then normalizes outstanding work by each replica's
kernel-predicted decode rate.  A null (or absent) control plane pushes no
control events, so such runs stay bit-identical to the plain simulator.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.cluster.disagg import DisaggregationSpec, kv_transfer_time
from repro.cluster.router import LeastOutstandingTokensRouter, Router, _least_outstanding
from repro.control.autoscale import (
    BurnRateAutoscaler,
    FleetView,
    NullAutoscaler,
    TelemetryFleetView,
)
from repro.control.plane import ControlPlane
from repro.core.request import GenerationRequest, RequestState
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    percentile,
    record_latencies,
)
from repro.obs.profiler import ProfileReport, merge_profiles
from repro.obs.telemetry import (
    FAST_WINDOW_S,
    TelemetryHub,
    TelemetrySnapshot,
    trace_alerts,
)
from repro.obs.tracer import EventTracer, TraceEvent
from repro.perf.kernel import get_kernel
from repro.perf.phases import Deployment
from repro.runtime.engine import EngineResult, EngineRun, ServingEngine
from repro.runtime.loadgen import LoadReport, ServiceLevelObjective, summarize_requests

__all__ = ["Replica", "ReplicaReport", "ClusterResult", "ClusterSimulator"]

_ARRIVAL = "arrival"
_HANDOFF = "handoff"
_RETRY = "retry"
_FAULT = "fault"
_FAULT_END = "fault_end"
_TICK = "tick"

#: Batch-1 decode context at which replica capacity weights are compared.
_CAPACITY_PROBE_CONTEXT = 1024


class Replica:
    """One serving engine plus the router-visible state around it."""

    def __init__(
        self,
        index: int,
        name: str,
        engine: ServingEngine,
        run: EngineRun,
        role: str = "unified",
        prefix_cache_slots: int = 2,
        deployment: Deployment | None = None,
        capacity_weight: float = 1.0,
        start_s: float = 0.0,
        created_s: float = 0.0,
    ) -> None:
        self.index = index
        self.name = name
        self.engine = engine
        self.run = run
        self.role = role
        self.deployment = deployment if deployment is not None else engine.deployment
        # Relative serving rate (kernel-predicted decode speed over the
        # fleet's base deployment); exactly 1.0 in homogeneous fleets so
        # load normalization cannot perturb routing order.
        self.capacity_weight = capacity_weight
        self.base_capacity_weight = capacity_weight
        # Control-plane lifecycle: a replica serves from ``start_s`` (>0
        # while a scaled-up replica loads weights), ``created_s`` is when
        # the scale decision happened, ``alive``/``draining`` gate routing.
        self.start_s = start_s
        self.created_s = created_s
        self.alive = True
        self.draining = False
        self.status = "ok"
        # Bounded LRU of resident prompt prefixes: real prefix caches hold
        # a handful of hot prefixes before block eviction reclaims them,
        # which is exactly why KV-cache-aware routing pays — a replica
        # that sees every prefix in rotation keeps none of them warm.
        self.prefix_cache_slots = prefix_cache_slots
        self._prefix_lru: dict[int, None] = {}  # insertion-ordered LRU
        self.served: list[GenerationRequest] = []  # originals routed here

    def apply_telemetry_scale(self, scale: float) -> None:
        """Re-weight routing capacity from an observed utilization signal.

        A scale of exactly 1.0 restores ``base_capacity_weight`` (not
        ``base * 1.0``), so runs whose telemetry never deviates stay
        bit-identical to runs without the feedback loop.
        """
        if scale == 1.0:
            self.capacity_weight = self.base_capacity_weight
        else:
            self.capacity_weight = self.base_capacity_weight * scale

    def touch_prefix(self, prefix_id: int) -> bool:
        """Record a prefix use; True if its KV was resident (cache hit)."""
        lru = self._prefix_lru
        hit = prefix_id in lru
        if hit:
            lru.pop(prefix_id)  # move to most-recently-used
        lru[prefix_id] = None
        while len(lru) > self.prefix_cache_slots:
            lru.pop(next(iter(lru)))  # evict least-recently-used
        return hit

    # Router-facing summaries (delegated to the live run).

    @property
    def now(self) -> float:
        return self.run.now

    @property
    def has_work(self) -> bool:
        return self.run.has_work

    @property
    def outstanding_tokens(self) -> int:
        return self.run.outstanding_tokens

    @property
    def queue_depth(self) -> int:
        return self.run.queue_depth

    @property
    def kv_used_fraction(self) -> float:
        return self.run.kv_used_fraction


@dataclass(frozen=True)
class ReplicaReport:
    """Per-replica outcome of one cluster run."""

    name: str
    role: str
    requests_served: int
    busy_s: float
    utilization: float  # busy time over the cluster makespan
    result: EngineResult
    status: str = "ok"  # ok | crashed | draining | scaled


@dataclass
class ClusterResult:
    """Outcome of one cluster simulation."""

    requests: list[GenerationRequest]
    replicas: list[ReplicaReport]
    makespan_s: float
    router_name: str
    metrics: MetricsSnapshot
    prefix_hits: int = 0
    handoffs: int = 0
    transfer_s_total: float = 0.0
    average_power_w: float = 0.0
    replica_events: dict[str, list[TraceEvent]] = field(default_factory=dict)
    retries: int = 0
    failed_requests: int = 0
    lost_handoffs: int = 0
    fault_log: list[dict] = field(default_factory=list)
    scale_log: list[dict] = field(default_factory=list)
    profile: ProfileReport | None = None  # fleet cost attribution (profiled)
    telemetry: TelemetrySnapshot | None = None  # streaming series + alerts

    def load_report(
        self,
        offered_rate_rps: float,
        slo: ServiceLevelObjective | None = None,
        tenant_slos: dict[str, ServiceLevelObjective] | None = None,
    ) -> LoadReport:
        """Cluster-scope SLO/goodput accounting (same path as one engine)."""
        return summarize_requests(
            self.requests,
            self.makespan_s,
            offered_rate_rps,
            slo=slo,
            average_power_w=self.average_power_w,
            tenant_slos=tenant_slos,
        )

    def to_json_dict(self) -> dict:
        """Deterministic JSON view of the run.

        Everything timing- and outcome-relevant, but no process-global
        request ids: requests appear in trace order, so two identical
        seeded runs in one process diff byte-for-byte equal.  The
        ``telemetry`` key appears only on telemetry-attached runs, so
        telemetry-off payloads are byte-identical to historical ones.
        """
        payload = {
            "router": self.router_name,
            "makespan_s": self.makespan_s,
            "num_requests": len(self.requests),
            "failed_requests": self.failed_requests,
            "retries": self.retries,
            "handoffs": self.handoffs,
            "lost_handoffs": self.lost_handoffs,
            "transfer_s_total": self.transfer_s_total,
            "prefix_hits": self.prefix_hits,
            "average_power_w": self.average_power_w,
            "replicas": [
                {
                    "name": rep.name,
                    "role": rep.role,
                    "status": rep.status,
                    "requests_served": rep.requests_served,
                    "busy_s": rep.busy_s,
                    "utilization": rep.utilization,
                }
                for rep in self.replicas
            ],
            "requests": [
                {
                    "input_tokens": r.input_tokens,
                    "output_tokens": r.output_tokens,
                    "arrival_s": r.arrival_time,
                    "admit_s": r.admit_time,
                    "first_token_s": r.first_token_time,
                    "finish_s": r.finish_time,
                    "state": r.state,
                    "preemptions": r.preemptions,
                    "session": r.session_id,
                    "turn": r.turn_index,
                    "tenant": r.tenant,
                }
                for r in self.requests
            ],
            "faults": self.fault_log,
            "scale_events": self.scale_log,
        }
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry.to_json_dict()
        return payload

    def render(self) -> str:
        lines = [
            f"cluster: {len(self.replicas)} replicas, router {self.router_name}, "
            f"{len(self.requests)} requests, makespan {self.makespan_s:.2f} s"
        ]
        if self.handoffs:
            lines.append(
                f"disaggregated: {self.handoffs} KV handoffs, "
                f"{self.transfer_s_total:.3f} s total transfer"
            )
        if self.prefix_hits:
            lines.append(f"prefix-cache hits: {self.prefix_hits}")
        if self.fault_log:
            lines.append(
                f"faults: {len(self.fault_log)} injected | "
                f"retries {self.retries} | failed {self.failed_requests} | "
                f"lost handoffs {self.lost_handoffs}"
            )
        if self.scale_log:
            ups = sum(1 for e in self.scale_log if e["action"] == "up")
            downs = len(self.scale_log) - ups
            lines.append(f"autoscale: {ups} up, {downs} down")
        lines.append(
            f"{'replica':<12}{'role':<10}{'status':<10}"
            f"{'requests':>9}{'busy s':>10}{'util':>7}"
        )
        for rep in self.replicas:
            lines.append(
                f"{rep.name:<12}{rep.role:<10}{rep.status:<10}"
                f"{rep.requests_served:>9d}{rep.busy_s:>10.2f}{rep.utilization:>7.0%}"
            )
        return "\n".join(lines)


class ClusterSimulator:
    """Runs a request trace across N replicas behind a routing policy.

    ``num_replicas`` serving replicas share one ``deployment`` shape
    (or take per-replica shapes from ``fleet``); with ``disaggregation``
    set, ``disaggregation.num_prefill_replicas`` *additional*
    prefill-only replicas take arrivals and hand finished prompts to the
    serving (decode) fleet.  ``control`` attaches a resilience control
    plane (faults, retries, autoscaling); ``None`` or a null plane leaves
    results bit-identical to the plain simulator.  ``telemetry`` attaches
    a :class:`~repro.obs.telemetry.TelemetryHub` sampled on control
    ticks (auto-created when the autoscaler is a
    :class:`~repro.control.autoscale.BurnRateAutoscaler`, which consumes
    its burn-rate signal); ``None`` attaches no hub and keeps results
    bit-identical.  Pass a fresh :class:`Router` (and hub) per run —
    both carry state (cursors, prefix homes, telemetry series).
    """

    def __init__(
        self,
        deployment: Deployment,
        num_replicas: int,
        router: Router | None = None,
        max_concurrency: int = 32,
        optimistic: bool = False,
        disaggregation: DisaggregationSpec | None = None,
        prefix_cache_slots: int = 2,
        traced: bool = False,
        profiled: bool = False,
        kernel=None,
        control: ControlPlane | None = None,
        fleet: Sequence[Deployment] | None = None,
        telemetry: TelemetryHub | None = None,
    ) -> None:
        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if prefix_cache_slots < 1:
            raise ValueError(
                f"prefix_cache_slots must be >= 1, got {prefix_cache_slots}"
            )
        self.deployment = deployment
        # One step-cost kernel shared by every same-shape replica:
        # coefficient/memo state built by one replica's steps is reused by
        # the rest of the fleet (heterogeneous replicas get their own via
        # the process-wide kernel cache).
        self.kernel = kernel if kernel is not None else get_kernel(deployment)
        self.num_replicas = num_replicas
        self.router = router or LeastOutstandingTokensRouter()
        self.max_concurrency = max_concurrency
        self.optimistic = optimistic
        self.prefix_cache_slots = prefix_cache_slots
        self.disaggregation = disaggregation
        self.traced = traced
        self.profiled = profiled
        if fleet is not None:
            fleet = tuple(fleet)
            if len(fleet) != num_replicas:
                raise ValueError(
                    f"fleet lists {len(fleet)} deployments for "
                    f"{num_replicas} serving replicas"
                )
            if disaggregation is not None and any(
                dep.model != deployment.model for dep in fleet
            ):
                raise ValueError(
                    "disaggregated fleets must share one model: prefill KV "
                    "state must be attachable on every decode replica"
                )
        self.fleet = fleet
        self.control = control
        # A null plane is provably inert; treat it exactly like no plane
        # so the bit-identity guarantee holds by construction.
        self._control_on = control is not None and not control.is_null
        # Telemetry bus: an explicit hub, or one auto-created when the
        # control plane's autoscaler consumes burn-rate signals (the
        # policy cannot act without the bus feeding it).  Like routers,
        # hubs carry state — pass a fresh one per run.
        if (
            telemetry is None
            and self._control_on
            and isinstance(control.autoscaler, BurnRateAutoscaler)
        ):
            telemetry = TelemetryHub(slo=control.autoscaler.slo)
        self.telemetry = telemetry
        # Run-scoped state (replicas, event heap, counters)
        # is set by run() and _build_replicas() before any read.

    # ------------------------------------------------------------------

    @property
    def _serving_role(self) -> str:
        return "decode" if self.disaggregation is not None else "unified"

    def _capacity_weight(self, dep: Deployment) -> float:
        if dep is self.deployment or dep == self.deployment:
            return 1.0
        base_s = self.kernel.decode_step(1, _CAPACITY_PROBE_CONTEXT).total_s
        rep_s = get_kernel(dep).decode_step(1, _CAPACITY_PROBE_CONTEXT).total_s
        return base_s / rep_s

    def _make_replica(
        self,
        index: int,
        name: str,
        dep: Deployment,
        role: str,
        start_s: float = 0.0,
        created_s: float = 0.0,
    ) -> Replica:
        kernel = (
            self.kernel
            if dep is self.deployment or dep == self.deployment
            else get_kernel(dep)
        )
        engine = ServingEngine(
            dep,
            max_concurrency=self.max_concurrency,
            optimistic=self.optimistic,
            kernel=kernel,
            profile=self.profiled,
            tracer=EventTracer() if self.traced else None,
        )
        return Replica(
            index,
            name,
            engine,
            engine.start(pressure=self._pressure),
            role,
            prefix_cache_slots=self.prefix_cache_slots,
            deployment=dep,
            capacity_weight=self._capacity_weight(dep),
            start_s=start_s,
            created_s=created_s,
        )

    def _build_replicas(self) -> None:
        disagg = self.disaggregation
        specs: list[tuple[str, Deployment]] = []
        if disagg is not None:
            specs += [("prefill", self.deployment)] * disagg.num_prefill_replicas
        for i in range(self.num_replicas):
            specs.append(
                (
                    self._serving_role,
                    self.fleet[i] if self.fleet is not None else self.deployment,
                )
            )
        self._replicas = []
        for index, (role, dep) in enumerate(specs):
            name = f"{role}{index}" if disagg is not None else f"replica{index}"
            self._replicas.append(self._make_replica(index, name, dep, role))
        self._next_index = len(specs)
        self._prefill_fleet = [r for r in self._replicas if r.role == "prefill"]

    def _pressure(self) -> bool:
        """More work may still arrive *before* the step horizon: hold
        single-step boundaries.

        Heap events are already covered by the horizon each step
        receives, so only work that can be injected mid-loop — a live
        prefill replica whose next retirement spawns a KV handoff — forces
        single-stepping.
        """
        return any(r.alive and r.has_work for r in self._prefill_fleet)

    def _select(self, bound: float | None) -> Replica | None:
        """Least-advanced replica that is alive and has work (clock <
        ``bound`` if given).

        One pass over the fleet; the strict ``<`` keeps the first
        minimum, so clock ties go to the lowest replica index.
        """
        chosen = None
        best = math.inf if bound is None else bound
        for replica in self._replicas:
            if replica.alive:
                run = replica.run
                if run.now < best and run.has_work:
                    chosen, best = replica, run.now
        return chosen

    # ------------------------------------------------------------------

    def run(self, trace: list[GenerationRequest]) -> ClusterResult:
        """Route and execute ``trace`` to completion across the fleet."""
        if not trace:
            raise ValueError("trace is empty")
        self._events = []
        self._seq = itertools.count()
        self._orig_by_proxy = {}
        self._registry = MetricsRegistry()
        self._prefix_hits = 0
        self._handoffs = 0
        self._transfer_s = 0.0
        self._retries = 0
        self._failed = 0
        self._lost_handoffs = 0
        self._fault_log = []
        self._scale_log = []
        self._completions = []
        self._attempts = {}
        self._kv_windows = ()
        self._last_scale_s = float("-inf")
        self._ctl_tracer = (
            EventTracer()
            if (self.traced and (self._control_on or self.telemetry is not None))
            else None
        )

        self._build_replicas()
        for request in sorted(trace, key=lambda r: r.arrival_time):
            self._push(request.arrival_time, _ARRIVAL, request)
        self._control_ticks = False
        if self._control_on:
            plane = self.control
            assert plane is not None
            for event in plane.faults.events:
                self._push(event.at_s, _FAULT, event)
                if event.kind == "slowdown":
                    self._push(event.end_s, _FAULT_END, event)
            self._kv_windows = plane.faults.kv_loss_windows()
            self._control_ticks = not isinstance(plane.autoscaler, NullAutoscaler)
        # Control ticks drive autoscaling; the telemetry bus samples on the
        # same tick train (and arms it alone on control-free runs), so the
        # hub records the control interval it is ticked at.
        hub = self.telemetry
        if self._control_ticks:
            self._tick_every = self.control.tick_interval_s
            if hub is not None:
                hub.tick_interval_s = self._tick_every
        elif hub is not None:
            self._tick_every = hub.tick_interval_s
        self._telemetry_view = (
            TelemetryFleetView(hub) if (hub is not None and self.profiled) else None
        )
        if self._control_ticks or hub is not None:
            self._push(self._tick_every, _TICK, None)

        while True:
            if self._events:
                t_next = self._events[0][0]
                replica = self._select(t_next)
                if replica is not None:
                    self._step(replica, horizon=t_next)
                    continue
                ts, _, kind, payload = heapq.heappop(self._events)
                if kind == _ARRIVAL:
                    self._dispatch_arrival(payload, ts)
                elif kind == _HANDOFF:
                    self._dispatch_handoff(payload, ts)
                elif kind == _RETRY:
                    self._dispatch_arrival(payload, ts, retry=True)
                elif kind == _FAULT:
                    self._apply_fault(payload, ts)
                elif kind == _FAULT_END:
                    self._end_fault(payload, ts)
                else:  # _TICK
                    self._autoscale_tick(ts)
                continue
            replica = self._select(None)
            if replica is None:
                break
            self._step(replica, horizon=None)

        return self._finalize(trace)

    # ------------------------------------------------------------------

    def _push(self, ts: float, kind: str, payload: object) -> None:
        heapq.heappush(self._events, (ts, next(self._seq), kind, payload))

    def _step(self, replica: Replica, horizon: float | None) -> None:
        retired = replica.run.step(horizon=horizon)
        if (
            not self._orig_by_proxy
            and not self._control_on
            and self.telemetry is None
        ):
            return
        for proxy in retired:
            orig = self._orig_by_proxy.pop(proxy.request_id, None)
            if orig is not None:
                if replica.role == "prefill":
                    self._complete_prefill(orig, proxy)
                else:
                    self._complete_decode(orig, proxy)
            else:
                orig = proxy  # submitted directly (no proxy)
            if orig.state == RequestState.FINISHED:
                if self._control_on:
                    self._completions.append(orig)
                if self.telemetry is not None:
                    self.telemetry.record_request(orig)

    def _complete_prefill(
        self, orig: GenerationRequest, proxy: GenerationRequest
    ) -> None:
        """Stitch TTFT from the prefill side; schedule the KV handoff."""
        orig.admit_time = proxy.admit_time
        orig.first_token_time = proxy.first_token_time
        if orig.output_tokens == 1:
            orig.finish_time = proxy.finish_time
            orig.generated_tokens = 1
            orig.state = RequestState.FINISHED
            return
        assert self.disaggregation is not None
        context = orig.input_tokens + 1
        transfer = kv_transfer_time(
            self.deployment, context, self.disaggregation.interconnect
        )
        self._handoffs += 1
        self._transfer_s += transfer
        landing = proxy.finish_time + transfer
        if self._control_on and self._kv_lost(landing):
            # The transfer raced a KV-loss window: the decode side never
            # sees the state; the request restarts from the prefill fleet.
            self._lost_handoffs += 1
            if self._ctl_tracer is not None:
                self._ctl_tracer.instant("control", "kv_handoff_lost", ts_s=landing)
            self._requeue(orig, landing)
            return
        self._push(landing, _HANDOFF, orig)

    def _complete_decode(
        self, orig: GenerationRequest, proxy: GenerationRequest
    ) -> None:
        if orig.first_token_time is None:
            # Full-lifecycle proxy (a unified-mode retry): the original
            # keeps its true arrival, so the stitched TTFT carries the
            # crash + backoff penalty.
            orig.admit_time = proxy.admit_time
            orig.first_token_time = proxy.first_token_time
        orig.finish_time = proxy.finish_time
        orig.generated_tokens = orig.output_tokens
        orig.state = RequestState.FINISHED

    # ------------------------------------------------------------------

    def _route_pool(
        self, role: str, now: float, kind: str, payload: object
    ) -> list[Replica] | None:
        """Routable replicas of ``role`` at ``now``.

        Ready replicas (alive, warmed, not draining) when any exist;
        otherwise the dispatch is deferred until the first warming replica
        comes online (returns ``None`` after re-pushing the event), then
        draining replicas as a last resort, then an empty list — the
        caller fails the request.
        """
        ready, warming = self._partition(role, now)
        if ready:
            return ready
        if warming:
            self._push(min(r.start_s for r in warming), kind, payload)
            return None
        return [r for r in self._replicas if r.role == role and r.alive]

    def _partition(
        self, role: str, now: float
    ) -> tuple[list[Replica], list[Replica]]:
        """Alive, non-draining replicas of ``role``: (ready, warming) at
        ``now``, in one pass over the fleet."""
        ready: list[Replica] = []
        warming: list[Replica] = []
        for r in self._replicas:
            if r.role == role and r.alive and not r.draining:
                (ready if r.start_s <= now else warming).append(r)
        return ready, warming

    def _dispatch_arrival(
        self, request: GenerationRequest, ts: float, retry: bool = False
    ) -> None:
        now = ts
        role = "prefill" if self.disaggregation is not None else "unified"
        pool = self._route_pool(role, now, _RETRY if retry else _ARRIVAL, request)
        if pool is None:
            return  # deferred until a warming replica comes online
        if not pool:
            self._fail(request, now)
            return
        self._sample_gauges(self._replicas, now)
        chosen = self.router.route(request, pool, now)
        cached = 0
        if request.prefix_id is not None:
            # Touch even when prefix_tokens == 0 (a session's opening turn)
            # so the prefix enters the replica's LRU and later turns hit.
            if chosen.touch_prefix(request.prefix_id) and request.prefix_tokens > 0:
                cached = request.prefix_tokens
                self._prefix_hits += 1
        chosen.served.append(request)
        if self.disaggregation is None:
            if not retry:
                request.cached_prefix_tokens = cached
                chosen.run.submit(request)
                return
            # Retries run as full-lifecycle proxies: the proxy arrives at
            # the retry instant (so a lagging idle replica cannot serve it
            # before the backoff elapsed), while the original keeps its
            # true arrival time for TTFT accounting.
            proxy = GenerationRequest(
                input_tokens=request.input_tokens,
                output_tokens=request.output_tokens,
                arrival_time=now,
                prefix_id=request.prefix_id,
                prefix_tokens=request.prefix_tokens,
                cached_prefix_tokens=cached,
            )
            self._orig_by_proxy[proxy.request_id] = request
            chosen.run.submit(proxy)
            return
        proxy = GenerationRequest(
            input_tokens=request.input_tokens,
            output_tokens=1,
            arrival_time=now,
            prefix_id=request.prefix_id,
            prefix_tokens=request.prefix_tokens,
            cached_prefix_tokens=cached,
        )
        self._orig_by_proxy[proxy.request_id] = request
        chosen.run.submit(proxy)

    def _dispatch_handoff(self, orig: GenerationRequest, ts: float) -> None:
        pool = self._route_pool(self._serving_role, ts, _HANDOFF, orig)
        if pool is None:
            return  # deferred until a warming decode replica comes online
        if not pool:
            self._fail(orig, ts)
            return
        chosen = _least_outstanding(pool)
        chosen.served.append(orig)
        context = orig.input_tokens + 1
        # The KV arrived with the transfer: admission re-prefills a single
        # attach token, then decoding continues from the second token.
        proxy = GenerationRequest(
            input_tokens=context,
            output_tokens=orig.output_tokens - 1,
            arrival_time=ts,
            prefix_tokens=context - 1,
            cached_prefix_tokens=context - 1,
        )
        self._orig_by_proxy[proxy.request_id] = orig
        chosen.run.submit(proxy)

    # ------------------------------------------------------------------
    # Control plane: faults, retries, autoscaling.

    def _find_replica(self, name: str | None) -> Replica | None:
        return next((r for r in self._replicas if r.name == name), None)

    def _kv_lost(self, ts: float) -> bool:
        return any(start <= ts < end for start, end in self._kv_windows)

    def _reset(self, orig: GenerationRequest) -> None:
        """Wind a displaced request back to its pre-service state."""
        orig.generated_tokens = 0
        orig.state = RequestState.QUEUED
        orig.admit_time = None
        orig.first_token_time = None
        orig.finish_time = None
        orig.restart_context = 0
        orig.cached_prefix_tokens = 0

    def _fail(self, orig: GenerationRequest, ts: float) -> None:
        self._reset(orig)
        orig.state = RequestState.FAILED
        self._failed += 1
        if self.telemetry is not None:
            self.telemetry.record_request(orig, failed_at_s=ts)

    def _requeue(self, orig: GenerationRequest, ts: float) -> None:
        """Re-enter a displaced request via backoff, or fail it."""
        self._reset(orig)
        assert self.control is not None
        policy = self.control.retry
        attempt = self._attempts.get(orig.request_id, 0)
        if attempt >= policy.max_retries:
            self._fail(orig, ts)
            if self._ctl_tracer is not None:
                self._ctl_tracer.instant(
                    "control", "retry_budget_exhausted", ts_s=ts, attempts=attempt
                )
            return
        self._attempts[orig.request_id] = attempt + 1
        self._retries += 1
        delay = policy.backoff_s(attempt)
        self._push(ts + delay, _RETRY, orig)
        if self._ctl_tracer is not None:
            self._ctl_tracer.instant(
                "control", "retry_scheduled", ts_s=ts, delay_s=delay, attempt=attempt
            )

    def _apply_fault(self, event, ts: float) -> None:
        tracer = self._ctl_tracer
        if event.kind == "kv_loss":
            self._fault_log.append(
                {"kind": "kv_loss", "at_s": event.at_s, "duration_s": event.duration_s}
            )
            if tracer is not None:
                tracer.instant(
                    "control", "fault:kv_loss", ts_s=ts, duration_s=event.duration_s
                )
            return
        replica = self._find_replica(event.replica)
        if replica is None or not replica.alive:
            return
        if event.kind == "slowdown":
            replica.run.cost_scale = event.factor
            self._fault_log.append(
                {
                    "kind": "slowdown",
                    "at_s": event.at_s,
                    "replica": replica.name,
                    "factor": event.factor,
                    "duration_s": event.duration_s,
                }
            )
            if tracer is not None:
                tracer.instant(
                    "control",
                    "fault:slowdown",
                    ts_s=ts,
                    replica=replica.name,
                    factor=event.factor,
                )
            return
        # Crash: the replica never steps again; everything resident on it
        # (queued or mid-flight) re-enters the router under backoff.
        replica.alive = False
        replica.status = "crashed"
        victims = [r for r in replica.run.submitted if not r.is_finished]
        self._fault_log.append(
            {
                "kind": "crash",
                "at_s": event.at_s,
                "replica": replica.name,
                "requeued": len(victims),
            }
        )
        if tracer is not None:
            tracer.instant(
                "control",
                "fault:crash",
                ts_s=ts,
                replica=replica.name,
                requeued=len(victims),
            )
        for victim in victims:
            orig = self._orig_by_proxy.pop(victim.request_id, victim)
            self._requeue(orig, ts)

    def _end_fault(self, event, ts: float) -> None:
        replica = self._find_replica(event.replica)
        if replica is not None and replica.alive:
            replica.run.cost_scale = 1.0
            if self._ctl_tracer is not None:
                self._ctl_tracer.instant(
                    "control", "fault:slowdown_end", ts_s=ts, replica=replica.name
                )

    def _fleet_view(
        self, ts: float, serving: list[Replica], warming: list[Replica]
    ) -> FleetView:
        assert self.control is not None
        window = self.control.metrics_window_s
        recent = [r for r in self._completions if r.finish_time >= ts - window]
        slo = getattr(self.control.autoscaler, "slo", None) or ServiceLevelObjective()
        if recent:
            attainment = sum(1 for r in recent if slo.met_by(r)) / len(recent)
            ttft_p95 = percentile(sorted(r.ttft_s for r in recent), 95.0)
        else:
            attainment = ttft_p95 = float("nan")
        if self.telemetry is not None:
            # The telemetry tick runs first, so the burn rates the policy
            # sees are current as of this tick.
            burn_fast, burn_slow = self.telemetry.burn_rates()
        else:
            burn_fast = burn_slow = float("nan")
        return FleetView(
            now_s=ts,
            num_serving=len(serving),
            num_warming=len(warming),
            queue_depth=sum(r.queue_depth for r in serving),
            outstanding_tokens=sum(r.outstanding_tokens for r in serving),
            slo_attainment=attainment,
            ttft_p95_s=ttft_p95,
            burn_rate_fast=burn_fast,
            burn_rate_slow=burn_slow,
        )

    def _autoscale_tick(self, ts: float) -> None:
        serving, warming = self._partition(self._serving_role, ts)
        if self.telemetry is not None:
            self._telemetry_tick(ts, serving, warming)
        if self._control_ticks:
            plane = self.control
            assert plane is not None
            policy = plane.autoscaler
            view = self._fleet_view(ts, serving, warming)
            registry = self._registry
            registry.gauge("fleet.serving").set(view.num_serving, ts_s=ts)
            registry.gauge("fleet.warming").set(view.num_warming, ts_s=ts)
            registry.gauge("fleet.queue_depth").set(view.queue_depth, ts_s=ts)
            if not math.isnan(view.slo_attainment):
                registry.gauge("fleet.slo_attainment").set(
                    view.slo_attainment, ts_s=ts
                )
            delta = policy.decide(view)
            cooled = ts - self._last_scale_s >= policy.cooldown_s
            if delta > 0 and cooled and view.num_provisioned < policy.max_replicas:
                self._scale_up(ts)
            elif delta < 0 and cooled and view.num_provisioned > policy.min_replicas:
                self._scale_down(ts)
        # Re-arm only while the run can still produce or receive work, so
        # the tick chain cannot keep a finished simulation alive.
        if self._events or any(r.alive and r.has_work for r in self._replicas):
            self._push(ts + self._tick_every, _TICK, None)

    def _telemetry_tick(
        self, ts: float, serving: list[Replica], warming: list[Replica]
    ) -> None:
        """Sample the fleet into the telemetry bus, evaluate the budget,
        land alert transitions in the control trace, and feed observed
        utilization back into routing weights (profiled runs)."""
        hub = self.telemetry
        hub.sample("fleet.serving", ts, float(len(serving)), unit="replicas")
        hub.sample("fleet.warming", ts, float(len(warming)), unit="replicas")
        hub.sample(
            "fleet.queue_depth", ts, float(sum(r.queue_depth for r in serving))
        )
        hub.sample(
            "fleet.outstanding_tokens",
            ts,
            float(sum(r.outstanding_tokens for r in serving)),
            unit="tokens",
        )
        for replica in self._replicas:
            if not replica.alive:
                continue
            prefix = f"replica.{replica.name}"
            hub.sample(f"{prefix}.queue_depth", ts, float(replica.queue_depth))
            hub.sample(
                f"{prefix}.outstanding_tokens",
                ts,
                float(replica.outstanding_tokens),
                unit="tokens",
            )
            hub.sample(f"{prefix}.kv_occupancy", ts, replica.kv_used_fraction)
            profiler = replica.run.profiler
            if profiler is not None:
                self._sample_profiler_totals(
                    prefix, ts, replica, profiler.running_totals()
                )
        trace_alerts(self._ctl_tracer, hub.tick(ts))
        if self._telemetry_view is not None and len(serving) > 1:
            scales = self._telemetry_view.routing_scales(
                [r.name for r in serving], ts
            )
            for replica in serving:
                replica.apply_telemetry_scale(scales[replica.name])

    def _sample_profiler_totals(
        self, prefix: str, ts: float, replica: Replica, totals: dict
    ) -> None:
        """Cumulative profiler counters plus the derived windowed
        efficiency channels (MFU/MBU/watts/joules-per-token)."""
        hub = self.telemetry
        hub.sample(f"{prefix}.busy_s", ts, totals["busy_s"], unit="s")
        hub.sample(f"{prefix}.flops", ts, totals["flops"], unit="flops")
        hub.sample(f"{prefix}.bytes", ts, totals["bytes"], unit="bytes")
        hub.sample(f"{prefix}.energy_j", ts, totals["energy_j"], unit="J")
        hub.sample(f"{prefix}.tokens", ts, totals["tokens"], unit="tokens")
        window = FAST_WINDOW_S
        # A freshly scaled replica has existed for less than a full
        # window; normalize by its actual lifetime inside the window.
        elapsed = min(window, ts - replica.created_s)
        if elapsed <= 0:
            return
        profiler = replica.run.profiler
        d_flops = hub.series(f"{prefix}.flops").delta(window, ts)
        d_bytes = hub.series(f"{prefix}.bytes").delta(window, ts)
        d_energy = hub.series(f"{prefix}.energy_j").delta(window, ts)
        d_tokens = hub.series(f"{prefix}.tokens").delta(window, ts)
        hub.sample(
            f"{prefix}.mfu", ts, d_flops / (elapsed * profiler.peak_flops_per_s)
        )
        hub.sample(
            f"{prefix}.mbu",
            ts,
            d_bytes / (elapsed * profiler.peak_bandwidth_bytes_s),
        )
        hub.sample(f"{prefix}.watts", ts, d_energy / elapsed, unit="W")
        if d_tokens > 0:
            hub.sample(
                f"{prefix}.joules_per_token",
                ts,
                d_energy / d_tokens,
                unit="J/token",
            )

    def _scale_up(self, ts: float) -> None:
        plane = self.control
        assert plane is not None
        dep = plane.scale_deployment or self.deployment
        index = self._next_index
        self._next_index += 1
        name = (
            f"decode{index}"
            if self.disaggregation is not None
            else f"replica{index}"
        )
        warmup = plane.warmup_s(dep)
        replica = self._make_replica(
            index, name, dep, self._serving_role, start_s=ts + warmup, created_s=ts
        )
        replica.status = "scaled"
        self._replicas.append(replica)
        self._last_scale_s = ts
        self._scale_log.append(
            {"action": "up", "ts_s": ts, "replica": name, "ready_s": ts + warmup}
        )
        if self._ctl_tracer is not None:
            self._ctl_tracer.instant(
                "control", "scale_up", ts_s=ts, replica=name, ready_s=ts + warmup
            )

    def _scale_down(self, ts: float) -> None:
        role = self._serving_role
        candidates = [
            r
            for r in self._replicas
            if r.role == role and r.alive and not r.draining
        ]
        if not candidates:
            return
        # Prefer the emptiest replica; among the idle, the one that came
        # online last (cancelling a still-warming replica is free).
        victim = min(
            candidates, key=lambda r: (r.outstanding_tokens, -r.start_s, r.index)
        )
        victim.draining = True
        victim.status = "draining"
        self._last_scale_s = ts
        self._scale_log.append(
            {"action": "down", "ts_s": ts, "replica": victim.name}
        )
        if self._ctl_tracer is not None:
            self._ctl_tracer.instant(
                "control", "scale_down", ts_s=ts, replica=victim.name
            )

    # ------------------------------------------------------------------

    def _sample_gauges(self, replicas: list[Replica], now: float) -> None:
        """Per-replica fleet gauges at each routing instant."""
        registry = self._registry
        for replica in replicas:
            if not replica.alive:
                continue
            registry.gauge(f"{replica.name}.queue_depth").set(
                replica.queue_depth, ts_s=now
            )
            registry.gauge(f"{replica.name}.outstanding_tokens").set(
                replica.outstanding_tokens, ts_s=now
            )
            registry.gauge(f"{replica.name}.kv_occupancy").set(
                replica.kv_used_fraction, ts_s=now
            )

    def _finalize(self, trace: list[GenerationRequest]) -> ClusterResult:
        registry = self._registry
        replicas = self._replicas
        makespan = max((r.now for r in replicas), default=0.0)
        telemetry_snapshot: TelemetrySnapshot | None = None
        if self.telemetry is not None:
            # Closeout tick at the horizon: flush completions recorded
            # past the last control tick and settle any firing alerts.
            trace_alerts(self._ctl_tracer, self.telemetry.finish(makespan))
            telemetry_snapshot = self.telemetry.snapshot()
        energy_j = 0.0
        reports: list[ReplicaReport] = []
        events: dict[str, list[TraceEvent]] = {}
        profiles: list[ProfileReport] = []
        for replica in replicas:
            run = replica.run
            result = run.result()
            if result.profile is not None:
                # Label the replica's profile with its fleet name (frozen
                # report: rebuild rather than mutate).
                result.profile = dataclasses.replace(
                    result.profile, name=replica.name
                )
                profiles.append(result.profile)
            busy = max(0.0, run.now - run.idle_s)
            energy_j += run.energy_j
            idle_w = replica.engine._power.group_power_w(0.0)
            if replica.alive and not replica.draining:
                # Replicas that drain early idle until the cluster finishes;
                # crashed/draining replicas stop drawing at their last step.
                energy_j += (makespan - run.now) * idle_w
            if replica.created_s > 0.0 and (
                run.now > 0.0 or (replica.alive and not replica.draining)
            ):
                # A scaled-up replica's accounting starts at t=0 (the idle
                # fast-forward and the idle top-up both integrate from
                # there), but it only existed from its creation instant.
                energy_j -= replica.created_s * idle_w
            reports.append(
                ReplicaReport(
                    name=replica.name,
                    role=replica.role,
                    requests_served=len(replica.served),
                    busy_s=busy,
                    utilization=busy / makespan if makespan > 0 else 0.0,
                    result=result,
                    status=replica.status,
                )
            )
            registry.counter("preemptions").inc(result.scheduler_stats.preemptions)
            if replica.engine.tracer is not None:
                events[replica.name] = replica.engine.tracer.events
        if self._ctl_tracer is not None and self._ctl_tracer.events:
            events["control"] = self._ctl_tracer.events

        record_latencies(registry, trace)
        registry.counter("routed").inc(len(trace))
        registry.counter("prefix_hits").inc(self._prefix_hits)
        registry.counter("handoffs").inc(self._handoffs)
        if self._control_on:
            registry.counter("retries").inc(self._retries)
            registry.counter("failed").inc(self._failed)
            registry.counter("lost_handoffs").inc(self._lost_handoffs)

        return ClusterResult(
            requests=list(trace),
            replicas=reports,
            makespan_s=makespan,
            router_name=self.router.name,
            metrics=registry.snapshot(),
            prefix_hits=self._prefix_hits,
            handoffs=self._handoffs,
            transfer_s_total=self._transfer_s,
            average_power_w=energy_j / makespan if makespan > 0 else 0.0,
            replica_events=events,
            retries=self._retries,
            failed_requests=self._failed,
            lost_handoffs=self._lost_handoffs,
            fault_log=list(self._fault_log),
            scale_log=list(self._scale_log),
            profile=(
                merge_profiles(profiles, name="cluster") if profiles else None
            ),
            telemetry=telemetry_snapshot,
        )
