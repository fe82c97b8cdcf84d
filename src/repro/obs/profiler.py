"""Runtime cost-attribution profiler: per-step roofline accounting.

The static :func:`repro.analysis.bottleneck.analyze` report explains a
steady-state deployment; this module explains a *run*.  A
:class:`StepProfiler` rides inside :class:`~repro.runtime.engine.EngineRun`
(and, per replica, inside the cluster simulator), attributing every
committed step — each prefill chunk, each coalesced decode span, each idle
gap — to the roofline components the step model priced, plus the FLOPs and
DRAM bytes the step moved (from the kernel's traffic accessors) and the
energy it drew.  At the end of the run the accumulated state snapshots
into an immutable :class:`ProfileReport`: per-phase and per-request
attribution tables, MFU/MBU against datasheet peaks, tokens/s,
joules-per-token, and a dominant-bottleneck classification reusing
:class:`repro.analysis.bottleneck.Bottleneck`.

Two invariants keep the attribution honest (both enforced by
``tests/test_profiler.py``):

* **exact sums** — every recorded step's component times sum to the
  kernel's committed step cost to <= 1e-12 relative (the
  :class:`~repro.core.metrics.CostComponents` remainder construction);
* **zero overhead** — the engine default is no profiler at all
  (``EngineRun.profiler is None``, checked before every ``record_*``
  call), and with profiling disabled engine and cluster results are
  bit-identical to an unprofiled build.

MFU and MBU are *model* utilizations: modeled FLOPs (and modeled stream
bytes, including the framework's KV read multiplier) divided by datasheet
peak rate x elapsed time x device count.  Capacities
(``flop_capacity``/``byte_capacity``) are stored explicitly so fleet
merges stay well-defined: fleet MFU is sum(flops) / sum(capacity), not a
mean of ratios.

When a recording tracer is attached, every recorded step also emits
Perfetto counter samples (category ``"profile"``): ``mfu``, ``mbu``,
``tokens_per_s``, ``watts`` and ``joules_per_token`` — instantaneous
rates over the step, viewable alongside the engine's span tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.bottleneck import Bottleneck, PhaseAttribution
from repro.core.jsonio import from_json_num, json_num
from repro.core.metrics import (
    COMPONENT_FIELDS,
    CostComponents,
    LatencyBreakdown,
    component_partition,
)
from repro.obs.tracer import EventTracer
from repro.perf.kernel import get_kernel
from repro.perf.phases import Deployment

__all__ = [
    "PhaseProfile",
    "RequestProfile",
    "ProfileReport",
    "StepProfiler",
    "merge_profiles",
]

#: Fixed phase emission order (report determinism).
_PHASE_ORDER = ("prefill", "decode")


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with 0.0 on an empty denominator."""
    return numerator / denominator if denominator > 0.0 else 0.0


def _components_from_json(payload: object) -> CostComponents:
    """Rebuild a :class:`CostComponents` from its ``components_s`` dict."""
    data = dict(payload)  # type: ignore[call-overload]
    return CostComponents(
        **{name: from_json_num(data.get(name, 0.0)) for name in COMPONENT_FIELDS}
    )


@dataclass(frozen=True)
class PhaseProfile:
    """Accumulated attribution for one phase ("prefill" or "decode")."""

    phase: str
    time_s: float
    events: int  # recorded steps (chunks for prefill, spans for decode)
    steps: int  # engine iterations inside those events
    tokens: int  # tokens processed (batch x chunk/step tokens)
    flops: float
    bytes_moved: float
    energy_j: float
    components: CostComponents

    @property
    def attribution(self) -> PhaseAttribution | None:
        """Mechanism shares, or ``None`` for an empty phase."""
        if self.components.total_s <= 0.0:
            return None
        return PhaseAttribution.from_components(self.phase, self.components)

    @property
    def dominant(self) -> Bottleneck | None:
        attribution = self.attribution
        return attribution.dominant if attribution is not None else None

    def to_json_dict(self) -> dict[str, object]:
        dominant = self.dominant
        return {
            "phase": self.phase,
            "time_s": json_num(self.time_s),
            "events": self.events,
            "steps": self.steps,
            "tokens": self.tokens,
            "flops": json_num(self.flops),
            "bytes_moved": json_num(self.bytes_moved),
            "energy_j": json_num(self.energy_j),
            "components_s": {
                name: json_num(value)
                for name, value in self.components.as_dict().items()
            },
            "fractions": {
                name: json_num(value)
                for name, value in self.components.fractions().items()
            },
            "dominant": str(dominant) if dominant is not None else None,
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, object]) -> "PhaseProfile":
        """Inverse of :meth:`to_json_dict` (derived fields recomputed)."""
        return cls(
            phase=str(payload["phase"]),
            time_s=from_json_num(payload["time_s"]),
            events=int(payload["events"]),
            steps=int(payload["steps"]),
            tokens=int(payload["tokens"]),
            flops=from_json_num(payload["flops"]),
            bytes_moved=from_json_num(payload["bytes_moved"]),
            energy_j=from_json_num(payload["energy_j"]),
            components=_components_from_json(payload["components_s"]),
        )


@dataclass(frozen=True)
class RequestProfile:
    """One request's share of the run's cost.

    Steps are shared equally among their participants: a decode span over
    a batch of 8 charges each sequence one eighth of the span's
    components and energy.  Prefill chunks are charged to the admitted
    prompts only — decoding streams that ride along a fused chunk (the
    SplitFuse effect) ride free, exactly as the engine prices them.
    ``index`` is the request's position in the run's submission order, so
    profiles are deterministic (request ids are process-global).
    """

    index: int
    input_tokens: int
    output_tokens: int
    time_s: float
    energy_j: float
    components: CostComponents

    @property
    def dominant(self) -> Bottleneck | None:
        if self.components.total_s <= 0.0:
            return None
        return PhaseAttribution.from_components(
            f"request{self.index}", self.components
        ).dominant

    def to_json_dict(self) -> dict[str, object]:
        dominant = self.dominant
        return {
            "index": self.index,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "time_s": json_num(self.time_s),
            "energy_j": json_num(self.energy_j),
            "components_s": {
                name: json_num(value)
                for name, value in self.components.as_dict().items()
            },
            "dominant": str(dominant) if dominant is not None else None,
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, object]) -> "RequestProfile":
        """Inverse of :meth:`to_json_dict`."""
        return cls(
            index=int(payload["index"]),
            input_tokens=int(payload["input_tokens"]),
            output_tokens=int(payload["output_tokens"]),
            time_s=from_json_num(payload["time_s"]),
            energy_j=from_json_num(payload["energy_j"]),
            components=_components_from_json(payload["components_s"]),
        )


@dataclass(frozen=True)
class ProfileReport:
    """Immutable cost profile of one run (or a merged fleet of runs).

    ``flop_capacity`` / ``byte_capacity`` are ``peak rate x wall time``
    (device count already folded into the peak rates), stored explicitly
    so merged fleet reports keep utilization well-defined under
    heterogeneous replicas and staggered makespans.
    """

    name: str
    model: str
    hardware: str
    framework: str
    num_devices: int
    total_time_s: float
    busy_s: float
    idle_s: float
    energy_j: float
    idle_energy_j: float
    peak_flops_per_s: float
    peak_bandwidth_bytes_s: float
    flop_capacity: float
    byte_capacity: float
    phases: tuple[PhaseProfile, ...]
    requests: tuple[RequestProfile, ...]

    # -- aggregates ----------------------------------------------------

    @property
    def flops(self) -> float:
        return sum(p.flops for p in self.phases)

    @property
    def bytes_moved(self) -> float:
        return sum(p.bytes_moved for p in self.phases)

    @property
    def tokens(self) -> int:
        return sum(p.tokens for p in self.phases)

    @property
    def components(self) -> CostComponents:
        totals = [0.0] * len(COMPONENT_FIELDS)
        for phase in self.phases:
            for i, value in enumerate(phase.components.as_dict().values()):
                totals[i] += value
        return CostComponents(*totals)

    # -- derived utilization / efficiency (all NaN-safe: 0.0 on empty) --

    @property
    def mfu(self) -> float:
        """Model FLOPs utilization over the whole wall clock."""
        return _ratio(self.flops, self.flop_capacity)

    @property
    def mbu(self) -> float:
        """Model bandwidth utilization (modeled stream bytes / peak)."""
        return _ratio(self.bytes_moved, self.byte_capacity)

    @property
    def tokens_per_s(self) -> float:
        return _ratio(float(self.tokens), self.total_time_s)

    @property
    def joules_per_token(self) -> float:
        return _ratio(self.energy_j, float(self.tokens))

    @property
    def average_power_w(self) -> float:
        return _ratio(self.energy_j, self.total_time_s)

    @property
    def dominant_bottleneck(self) -> Bottleneck | None:
        """Dominant mechanism across all profiled work (``None`` if none)."""
        combined = self.components
        if combined.total_s <= 0.0:
            return None
        return PhaseAttribution.from_components(self.name, combined).dominant

    # -- presentation --------------------------------------------------

    def render(self, max_requests: int = 0) -> str:
        """Human-readable profile table (the ``profile`` CLI output).

        ``max_requests > 0`` appends the N most time-expensive per-request
        attributions (ties broken by request index for determinism).
        """
        lines = [
            f"cost profile: {self.name} — {self.model} on "
            f"{self.num_devices}x {self.hardware} / {self.framework}",
            f"wall {self.total_time_s:.4g} s (busy {self.busy_s:.4g}, "
            f"idle {self.idle_s:.4g}) | {self.tokens} tokens | "
            f"{self.tokens_per_s:.4g} tok/s",
            f"MFU {self.mfu:.1%} | MBU {self.mbu:.1%} | "
            f"avg power {self.average_power_w:.4g} W | "
            f"{self.joules_per_token:.4g} J/token",
        ]
        if self.phases:
            lines.append("")
            lines.append(
                f"{'phase':<9}{'time s':>10}{'events':>8}{'tokens':>9}"
                f"{'compute':>9}{'weights':>9}{'kv':>7}{'act':>7}"
                f"{'comm':>7}{'ovh':>7}  dominant"
            )
            for phase in self.phases:
                shares = phase.components.fractions()
                dominant = phase.dominant
                lines.append(
                    f"{phase.phase:<9}{phase.time_s:>10.4g}{phase.events:>8d}"
                    f"{phase.tokens:>9d}"
                    f"{shares['compute_s']:>9.1%}{shares['weight_s']:>9.1%}"
                    f"{shares['kv_s']:>7.1%}{shares['activation_s']:>7.1%}"
                    f"{shares['communication_s']:>7.1%}"
                    f"{shares['overhead_s']:>7.1%}"
                    f"  {dominant if dominant is not None else '-'}"
                )
        dominant = self.dominant_bottleneck
        lines.append("")
        lines.append(
            "dominant bottleneck: "
            f"{dominant if dominant is not None else '- (no profiled work)'}"
        )
        lines.append(f"requests profiled: {len(self.requests)}")
        if max_requests > 0 and self.requests:
            shown = sorted(
                self.requests, key=lambda r: (-r.time_s, r.index)
            )[:max_requests]
            lines.append("")
            lines.append(
                f"{'req':>5}{'in':>8}{'out':>8}{'time s':>10}"
                f"{'energy J':>11}  dominant"
            )
            for req in shown:
                req_dominant = req.dominant
                lines.append(
                    f"{req.index:>5d}{req.input_tokens:>8d}"
                    f"{req.output_tokens:>8d}{req.time_s:>10.4g}"
                    f"{req.energy_j:>11.4g}"
                    f"  {req_dominant if req_dominant is not None else '-'}"
                )
        return "\n".join(lines)

    def to_json_dict(self) -> dict[str, object]:
        """Deterministic, JSON-serializable view (non-finite -> null)."""
        dominant = self.dominant_bottleneck
        return {
            "name": self.name,
            "model": self.model,
            "hardware": self.hardware,
            "framework": self.framework,
            "num_devices": self.num_devices,
            "total_time_s": json_num(self.total_time_s),
            "busy_s": json_num(self.busy_s),
            "idle_s": json_num(self.idle_s),
            "energy_j": json_num(self.energy_j),
            "idle_energy_j": json_num(self.idle_energy_j),
            "peak_flops_per_s": json_num(self.peak_flops_per_s),
            "peak_bandwidth_bytes_s": json_num(self.peak_bandwidth_bytes_s),
            "flop_capacity": json_num(self.flop_capacity),
            "byte_capacity": json_num(self.byte_capacity),
            "flops": json_num(self.flops),
            "bytes_moved": json_num(self.bytes_moved),
            "tokens": self.tokens,
            "mfu": json_num(self.mfu),
            "mbu": json_num(self.mbu),
            "tokens_per_s": json_num(self.tokens_per_s),
            "joules_per_token": json_num(self.joules_per_token),
            "average_power_w": json_num(self.average_power_w),
            "dominant": str(dominant) if dominant is not None else None,
            "phases": [phase.to_json_dict() for phase in self.phases],
            "requests": [req.to_json_dict() for req in self.requests],
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, object]) -> "ProfileReport":
        """Inverse of :meth:`to_json_dict`.

        Only the stored fields are read back — every derived aggregate
        (MFU, MBU, joules/token, dominant bottleneck) is recomputed from
        them, so a reconstructed report cannot disagree with its parts.
        Round-trips to an identical ``to_json_dict()`` (tested); this is
        what lets ``experiment diff`` and bundle replay consume profile
        JSON written by the ``profile`` CLI verb.
        """
        return cls(
            name=str(payload["name"]),
            model=str(payload["model"]),
            hardware=str(payload["hardware"]),
            framework=str(payload["framework"]),
            num_devices=int(payload["num_devices"]),
            total_time_s=from_json_num(payload["total_time_s"]),
            busy_s=from_json_num(payload["busy_s"]),
            idle_s=from_json_num(payload["idle_s"]),
            energy_j=from_json_num(payload["energy_j"]),
            idle_energy_j=from_json_num(payload["idle_energy_j"]),
            peak_flops_per_s=from_json_num(payload["peak_flops_per_s"]),
            peak_bandwidth_bytes_s=from_json_num(payload["peak_bandwidth_bytes_s"]),
            flop_capacity=from_json_num(payload["flop_capacity"]),
            byte_capacity=from_json_num(payload["byte_capacity"]),
            phases=tuple(
                PhaseProfile.from_json_dict(p) for p in payload["phases"]
            ),
            requests=tuple(
                RequestProfile.from_json_dict(r) for r in payload["requests"]
            ),
        )


class _PhaseAcc:
    """Mutable accumulator behind one :class:`PhaseProfile`; the six
    component seconds are plain floats in :data:`COMPONENT_FIELDS` order."""

    __slots__ = (
        "time_s", "events", "steps", "tokens", "flops", "bytes_moved",
        "energy_j", "components",
    )

    def __init__(self) -> None:
        self.time_s = 0.0
        self.events = 0
        self.steps = 0
        self.tokens = 0
        self.flops = 0.0
        self.bytes_moved = 0.0
        self.energy_j = 0.0
        self.components = [0.0] * len(COMPONENT_FIELDS)

    def add(
        self,
        time_s: float,
        events: int,
        steps: int,
        tokens: int,
        flops: float,
        bytes_moved: float,
        energy_j: float,
        components,  # noqa: ANN001 - six floats in COMPONENT_FIELDS order
    ) -> None:
        self.time_s += time_s
        self.events += events
        self.steps += steps
        self.tokens += tokens
        self.flops += flops
        self.bytes_moved += bytes_moved
        self.energy_j += energy_j
        totals = self.components
        for i, value in enumerate(components):
            totals[i] += value

    def profile(self, phase: str) -> PhaseProfile:
        return PhaseProfile(
            phase=phase,
            time_s=self.time_s,
            events=self.events,
            steps=self.steps,
            tokens=self.tokens,
            flops=self.flops,
            bytes_moved=self.bytes_moved,
            energy_j=self.energy_j,
            components=CostComponents(*self.components),
        )


def _phase_profiles(accs: dict[str, _PhaseAcc]) -> tuple[PhaseProfile, ...]:
    """The accumulated phases as profiles, in :data:`_PHASE_ORDER`."""
    return tuple(
        accs[phase].profile(phase) for phase in _PHASE_ORDER if phase in accs
    )


class _RequestAcc:
    """Mutable accumulator behind one :class:`RequestProfile`."""

    __slots__ = ("time_s", "energy_j", "components")

    def __init__(self) -> None:
        self.time_s = 0.0
        self.energy_j = 0.0
        self.components = [0.0] * len(COMPONENT_FIELDS)


class StepProfiler:
    """Recording profiler: accumulates per-step roofline attribution.

    The engine calls ``record_*`` with the *committed* breakdown (after
    any fault-injected ``cost_scale``), the step's integrated energy and
    the participating requests; the profiler derives the component
    partition, fetches the step's modeled FLOPs/bytes from the kernel's
    traffic accessors (O(1), memoized) and charges each participant its
    equal share.  Recording only adds floats in place; the frozen
    :class:`CostComponents` are built by :meth:`report`.
    """

    def __init__(
        self,
        deployment: Deployment,
        kernel=None,  # noqa: ANN001 - StepCostKernel | DirectStepCost
        tracer: EventTracer | None = None,
    ) -> None:
        self.deployment = deployment
        self.kernel = kernel if kernel is not None else get_kernel(deployment)
        self.tracer = tracer
        spec = deployment.hardware
        self.peak_flops_per_s = (
            deployment.quant.compute_rate_flops(spec) * deployment.num_devices
        )
        self.peak_bandwidth_bytes_s = (
            spec.memory_bandwidth_bytes_s * deployment.num_devices
        )
        self._phases: dict[str, _PhaseAcc] = {}
        self._requests: dict[int, _RequestAcc] = {}  # keyed by id(request)
        self.idle_s = 0.0
        self.idle_energy_j = 0.0

    # ------------------------------------------------------------------

    def record_prefill(
        self,
        ts_s: float,
        breakdown: LatencyBreakdown,
        batch_size: int,
        chunk_tokens: int,
        energy_j: float,
        requests,  # noqa: ANN001 - list[GenerationRequest]
    ) -> None:
        """Attribute one prefill chunk (committed cost ``breakdown``)."""
        components = component_partition(breakdown)
        flops, bytes_moved = self.kernel.prefill_traffic(batch_size, chunk_tokens)
        self._record(
            "prefill", ts_s, breakdown.total_s, components,
            batch_size * chunk_tokens, flops, bytes_moved, energy_j,
            requests, steps=1,
        )

    def record_decode(
        self,
        ts_s: float,
        step_breakdown: LatencyBreakdown,
        batch_size: int,
        span_ctx: int,
        steps: int,
        energy_j: float,
        requests,  # noqa: ANN001 - list[GenerationRequest]
    ) -> None:
        """Attribute one coalesced decode span (``steps`` iterations)."""
        scale = float(steps)
        components = [value * scale for value in component_partition(step_breakdown)]
        flops, bytes_moved = self.kernel.decode_step_traffic(batch_size, span_ctx)
        self._record(
            "decode", ts_s, step_breakdown.total_s * steps, components,
            batch_size * steps, flops * steps, bytes_moved * steps, energy_j,
            requests, steps=steps,
        )

    def record_idle(self, ts_s: float, span_s: float, energy_j: float) -> None:
        """Account an idle fast-forward (no components, idle power only)."""
        self.idle_s += span_s
        self.idle_energy_j += energy_j
        if self.tracer is not None and span_s > 0.0:
            self.tracer.counter("profile", "mfu", ts_s=ts_s, value=0.0)
            self.tracer.counter("profile", "mbu", ts_s=ts_s, value=0.0)
            self.tracer.counter("profile", "tokens_per_s", ts_s=ts_s, value=0.0)
            self.tracer.counter(
                "profile", "watts", ts_s=ts_s, value=energy_j / span_s
            )

    # ------------------------------------------------------------------

    def _record(
        self,
        phase: str,
        ts_s: float,
        total_s: float,
        components,  # noqa: ANN001 - six floats in COMPONENT_FIELDS order
        tokens: int,
        flops: float,
        bytes_moved: float,
        energy_j: float,
        requests,  # noqa: ANN001
        steps: int,
    ) -> None:
        acc = self._phases.get(phase)
        if acc is None:
            acc = self._phases[phase] = _PhaseAcc()
        acc.add(total_s, 1, steps, tokens, flops, bytes_moved, energy_j, components)

        if requests:
            share = 1.0 / len(requests)
            time_share = total_s * share
            energy_share = energy_j * share
            shared = [value * share for value in components]
            accs = self._requests
            for request in requests:
                req = accs.get(id(request))
                if req is None:
                    req = accs[id(request)] = _RequestAcc()
                req.time_s += time_share
                req.energy_j += energy_share
                totals = req.components
                for i, value in enumerate(shared):
                    totals[i] += value

        if self.tracer is not None and total_s > 0.0:
            self.tracer.counter(
                "profile", "mfu", ts_s=ts_s,
                value=flops / (total_s * self.peak_flops_per_s),
            )
            self.tracer.counter(
                "profile", "mbu", ts_s=ts_s,
                value=bytes_moved / (total_s * self.peak_bandwidth_bytes_s),
            )
            self.tracer.counter(
                "profile", "tokens_per_s", ts_s=ts_s, value=tokens / total_s
            )
            self.tracer.counter(
                "profile", "watts", ts_s=ts_s, value=energy_j / total_s
            )
            if tokens > 0:
                self.tracer.counter(
                    "profile", "joules_per_token", ts_s=ts_s,
                    value=energy_j / tokens,
                )

    # ------------------------------------------------------------------

    def running_totals(self) -> dict[str, float]:
        """Mid-run cumulative counters (the telemetry hub's tap).

        Cheap (two phase accumulators) and monotone, so sampling them on
        control ticks yields well-behaved cumulative series: windowed
        deltas give busy-normalized MFU/MBU, watts and joules/token over
        any trailing window without touching the committed physics.  An
        unprofiled run has no profiler (``EngineRun.profiler is None``),
        so the cluster checks for one before it samples.
        """
        busy_s = 0.0
        flops = 0.0
        bytes_moved = 0.0
        energy_j = self.idle_energy_j
        tokens = 0
        for acc in self._phases.values():
            busy_s += acc.time_s
            flops += acc.flops
            bytes_moved += acc.bytes_moved
            energy_j += acc.energy_j
            tokens += acc.tokens
        return {
            "busy_s": busy_s,
            "flops": flops,
            "bytes": bytes_moved,
            "energy_j": energy_j,
            "tokens": float(tokens),
        }

    def report(
        self,
        total_time_s: float,
        requests,  # noqa: ANN001 - list[GenerationRequest]
        name: str = "engine",
    ) -> ProfileReport:
        """Snapshot the accumulated attribution into a frozen report.

        ``requests`` fixes the per-request table's order and indices (the
        run's submission order); requests the profiler never saw (e.g. an
        OOM-rejected trace) appear with zero attribution.
        """
        dep = self.deployment
        phases = _phase_profiles(self._phases)
        request_profiles = []
        for index, request in enumerate(requests):
            acc = self._requests.get(id(request)) or _RequestAcc()
            request_profiles.append(
                RequestProfile(
                    index=index,
                    input_tokens=request.input_tokens,
                    output_tokens=request.output_tokens,
                    time_s=acc.time_s,
                    energy_j=acc.energy_j,
                    components=CostComponents(*acc.components),
                )
            )
        busy_s = sum(p.time_s for p in phases)
        energy_j = sum(p.energy_j for p in phases) + self.idle_energy_j
        return ProfileReport(
            name=name,
            model=dep.model.name,
            hardware=dep.hardware.name,
            framework=dep.framework.name,
            num_devices=dep.num_devices,
            total_time_s=total_time_s,
            busy_s=busy_s,
            idle_s=self.idle_s,
            energy_j=energy_j,
            idle_energy_j=self.idle_energy_j,
            peak_flops_per_s=self.peak_flops_per_s,
            peak_bandwidth_bytes_s=self.peak_bandwidth_bytes_s,
            flop_capacity=total_time_s * self.peak_flops_per_s,
            byte_capacity=total_time_s * self.peak_bandwidth_bytes_s,
            phases=phases,
            requests=tuple(request_profiles),
        )


def merge_profiles(
    profiles, name: str = "fleet"  # noqa: ANN001 - list[ProfileReport]
) -> ProfileReport:
    """Merge replica profiles into one fleet-level report.

    Phase accumulators and energies add; capacities add too (each replica
    contributed ``peak rate x its own wall time``), which keeps fleet MFU
    = sum(flops) / sum(capacity) — the utilization of the fleet's total
    silicon-time, not a mean of per-replica ratios.  Wall time is the
    fleet makespan (replicas share one clock); requests concatenate in
    replica order and are re-indexed.
    """
    profiles = [p for p in profiles if p is not None]
    if not profiles:
        raise ValueError("merge_profiles needs at least one profile")

    def label(values) -> str:  # noqa: ANN001
        unique = list(dict.fromkeys(values))
        return unique[0] if len(unique) == 1 else "+".join(unique)

    phase_accs: dict[str, _PhaseAcc] = {}
    for profile in profiles:
        for phase in profile.phases:
            acc = phase_accs.get(phase.phase)
            if acc is None:
                acc = phase_accs[phase.phase] = _PhaseAcc()
            acc.add(
                phase.time_s, phase.events, phase.steps, phase.tokens,
                phase.flops, phase.bytes_moved, phase.energy_j,
                phase.components.as_dict().values(),
            )
    requests = tuple(
        replace(req, index=index)
        for index, req in enumerate(
            req for profile in profiles for req in profile.requests
        )
    )
    return ProfileReport(
        name=name,
        model=label(p.model for p in profiles),
        hardware=label(p.hardware for p in profiles),
        framework=label(p.framework for p in profiles),
        num_devices=sum(p.num_devices for p in profiles),
        total_time_s=max(p.total_time_s for p in profiles),
        busy_s=sum(p.busy_s for p in profiles),
        idle_s=sum(p.idle_s for p in profiles),
        energy_j=sum(p.energy_j for p in profiles),
        idle_energy_j=sum(p.idle_energy_j for p in profiles),
        peak_flops_per_s=sum(p.peak_flops_per_s for p in profiles),
        peak_bandwidth_bytes_s=sum(p.peak_bandwidth_bytes_s for p in profiles),
        flop_capacity=sum(p.flop_capacity for p in profiles),
        byte_capacity=sum(p.byte_capacity for p in profiles),
        phases=_phase_profiles(phase_accs),
        requests=requests,
    )
