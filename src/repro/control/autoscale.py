"""Autoscaling policies for the cluster control plane.

A policy looks at a :class:`FleetView` — the operator-facing signals the
control plane samples on every control tick — and answers with a replica
delta: +1 (scale up), -1 (scale down) or 0 (hold).  The plane enforces
the mechanics around that answer: cooldown between actions, the
``min_replicas``/``max_replicas`` bounds, and the warm-up (weight-load)
delay a new replica pays before it can take traffic.

Two real policies ship alongside the null one:

* **queue-depth** — the classic threshold controller: scale up when the
  mean per-replica queue depth crosses the high watermark, down when it
  falls under the low watermark.  The watermark gap is the hysteresis
  band that stops flapping.
* **slo** — goodput-driven: scale up when SLO attainment over the
  trailing window drops below the :class:`~repro.runtime.loadgen
  .ServiceLevelObjective`'s ``attainment_target``, down only when
  attainment holds *and* the tail TTFT (p95, computed with
  :func:`repro.obs.metrics.percentile`) sits comfortably inside the
  bound with nothing queued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import UnknownNameError
from repro.obs.telemetry import FAST_WINDOW_S
from repro.runtime.loadgen import ServiceLevelObjective

__all__ = [
    "FleetView",
    "AutoscalePolicy",
    "BurnRateAutoscaler",
    "NullAutoscaler",
    "QueueDepthAutoscaler",
    "SLOAutoscaler",
    "TelemetryFleetView",
    "AUTOSCALER_NAMES",
    "autoscaler_from_plan",
    "derive_autoscaler_bounds",
    "get_autoscaler",
    "list_autoscalers",
]


@dataclass(frozen=True)
class FleetView:
    """What a policy sees at one control tick.

    ``slo_attainment`` and ``ttft_p95_s`` are computed over the trailing
    metrics window from the requests that finished inside it; both are
    NaN while the window is empty (policies must treat NaN as "no
    signal", not as zero).
    """

    now_s: float
    num_serving: int  # alive, warmed, not draining
    num_warming: int  # spun up, still loading weights
    queue_depth: int  # waiting requests across the serving fleet
    outstanding_tokens: int
    slo_attainment: float  # NaN with no completions in the window
    ttft_p95_s: float  # NaN with no completions in the window
    # Error-budget burn rates from the telemetry hub's SloBudget; NaN
    # when telemetry is off or the window saw no traffic (same "no
    # signal" convention as the attainment fields above).
    burn_rate_fast: float = float("nan")
    burn_rate_slow: float = float("nan")

    @property
    def num_provisioned(self) -> int:
        """Capacity already paid for: serving plus still-warming."""
        return self.num_serving + self.num_warming

    @property
    def queue_per_replica(self) -> float:
        return self.queue_depth / max(1, self.num_provisioned)


class AutoscalePolicy:
    """Policy interface; subclasses override :meth:`decide`.

    ``min_replicas``/``max_replicas`` bound the serving fleet size and
    ``cooldown_s`` spaces consecutive actions; the control plane enforces
    all three, so :meth:`decide` only has to express intent.
    """

    name = "base"

    def __init__(
        self,
        min_replicas: int = 1,
        max_replicas: int = 16,
        cooldown_s: float = 2.0,
    ) -> None:
        if min_replicas < 1:
            raise ValueError(f"min_replicas must be >= 1, got {min_replicas}")
        if max_replicas < min_replicas:
            raise ValueError(
                f"max_replicas ({max_replicas}) < min_replicas ({min_replicas})"
            )
        if cooldown_s < 0.0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.cooldown_s = cooldown_s

    def decide(self, view: FleetView) -> int:
        """Replica delta for this tick: +1, -1 or 0."""
        raise NotImplementedError


class NullAutoscaler(AutoscalePolicy):
    """Never scales; the do-nothing policy the equivalence tests pin."""

    name = "null"

    def decide(self, view: FleetView) -> int:
        return 0


class QueueDepthAutoscaler(AutoscalePolicy):
    """Threshold controller on mean per-replica queue depth."""

    name = "queue-depth"

    def __init__(
        self,
        high_watermark: float = 4.0,
        low_watermark: float = 0.5,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if low_watermark < 0 or high_watermark <= low_watermark:
            raise ValueError(
                "need 0 <= low_watermark < high_watermark, got "
                f"[{low_watermark}, {high_watermark}]"
            )
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark

    def decide(self, view: FleetView) -> int:
        per_replica = view.queue_per_replica
        if per_replica > self.high_watermark:
            return 1
        if per_replica < self.low_watermark and view.outstanding_tokens == 0:
            return -1
        return 0


class SLOAutoscaler(AutoscalePolicy):
    """Scale on windowed SLO attainment against the objective's target."""

    name = "slo"

    def __init__(
        self,
        slo: ServiceLevelObjective | None = None,
        scale_down_ttft_margin: float = 0.5,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not 0 < scale_down_ttft_margin <= 1:
            raise ValueError("scale_down_ttft_margin must be in (0, 1]")
        self.slo = slo or ServiceLevelObjective()
        self.scale_down_ttft_margin = scale_down_ttft_margin

    def decide(self, view: FleetView) -> int:
        attainment = view.slo_attainment
        if math.isnan(attainment):
            return 0  # no completions yet: no signal either way
        if attainment < self.slo.attainment_target:
            return 1
        p95 = view.ttft_p95_s
        tail_ok = math.isnan(p95) or (
            p95 < self.scale_down_ttft_margin * self.slo.ttft_s
        )
        if tail_ok and view.queue_depth == 0:
            return -1
        return 0


class BurnRateAutoscaler(AutoscalePolicy):
    """Scale on error-budget burn rate instead of instantaneous load.

    The telemetry hub's :class:`~repro.obs.telemetry.SloBudget` computes
    multi-window burn rates (budget consumed per unit of sustainable
    pace); this policy scales up while *both* windows burn hot — the
    fast window says the pain is happening now, the slow window says it
    is not a blip — and scales down only once the fast window has cooled
    well under sustainable burn with nothing queued.  Attaching this
    policy makes the cluster simulator arm a telemetry hub automatically
    (the burn signal has to come from somewhere).
    """

    name = "burn-rate"

    def __init__(
        self,
        slo: ServiceLevelObjective | None = None,
        scale_up_burn: float = 2.0,
        scale_down_burn: float = 0.25,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not 0 < scale_down_burn < scale_up_burn:
            raise ValueError(
                "need 0 < scale_down_burn < scale_up_burn, got "
                f"[{scale_down_burn}, {scale_up_burn}]"
            )
        self.slo = slo or ServiceLevelObjective()
        self.scale_up_burn = scale_up_burn
        self.scale_down_burn = scale_down_burn

    def decide(self, view: FleetView) -> int:
        fast = view.burn_rate_fast
        slow = view.burn_rate_slow
        if math.isnan(fast):
            return 0  # no completions in the window: no signal either way
        if fast > self.scale_up_burn and (
            math.isnan(slow) or slow > 1.0
        ):
            return 1
        if (
            fast < self.scale_down_burn
            and (math.isnan(slow) or slow < 1.0)
            and view.queue_depth == 0
        ):
            return -1
        return 0


#: :class:`TelemetryFleetView` routing-scale clip range, and the busy
#: time (seconds in the trailing window) below which a replica counts as
#: unobserved.
FLEET_VIEW_FLOOR = 0.5
FLEET_VIEW_CEILING = 2.0
FLEET_VIEW_MIN_BUSY_S = 1e-6


class TelemetryFleetView:
    """Windowed per-replica utilization read from a telemetry hub.

    Closes the profiler half of the control loop: the hub samples each
    replica's cumulative busy seconds and modeled FLOPs/bytes on every
    control tick; this view turns the trailing-window deltas into
    busy-normalized throughput per replica and hands the router a
    capacity re-weighting — a straggler (fault-injected ``cost_scale``)
    commits fewer FLOPs per busy second, so its routing weight drops and
    the least-loaded router steers traffic away *before* its queue
    visibly backs up.  Idle replicas are unaffected (busy-normalized, so
    idling does not read as slowness).  Replicas without enough signal
    keep scale 1.0, and ratios are clipped to
    ``[FLEET_VIEW_FLOOR, FLEET_VIEW_CEILING]`` so a noisy window cannot
    blackhole a healthy replica.
    """

    def __init__(self, hub) -> None:  # noqa: ANN001 - TelemetryHub
        self.hub = hub

    def effective_rate(self, replica_name: str, now_s: float) -> float:
        """FLOPs per busy second over the trailing window (the hub's fast
        burn window; NaN = no signal)."""
        busy = self.hub.series(f"replica.{replica_name}.busy_s").delta(
            FAST_WINDOW_S, now_s
        )
        if math.isnan(busy) or busy < FLEET_VIEW_MIN_BUSY_S:
            return float("nan")
        flops = self.hub.series(f"replica.{replica_name}.flops").delta(
            FAST_WINDOW_S, now_s
        )
        if math.isnan(flops):
            return float("nan")
        return flops / busy

    def routing_scales(
        self, replica_names: list[str], now_s: float
    ) -> dict[str, float]:
        """Per-replica routing-weight multipliers (1.0 = no adjustment)."""
        rates = {
            name: self.effective_rate(name, now_s) for name in replica_names
        }
        observed = [r for r in rates.values() if not math.isnan(r)]
        if len(observed) < 2:
            return {name: 1.0 for name in replica_names}
        mean = sum(observed) / len(observed)
        if mean <= 0:
            return {name: 1.0 for name in replica_names}
        scales = {}
        for name in replica_names:
            rate = rates[name]
            if math.isnan(rate):
                scales[name] = 1.0
            else:
                scales[name] = min(
                    max(rate / mean, FLEET_VIEW_FLOOR), FLEET_VIEW_CEILING
                )
        return scales


AUTOSCALER_NAMES: dict[str, type[AutoscalePolicy]] = {
    cls.name: cls
    for cls in (
        NullAutoscaler, QueueDepthAutoscaler, SLOAutoscaler, BurnRateAutoscaler
    )
}


def get_autoscaler(
    name: str,
    slo: ServiceLevelObjective | None = None,
    **kwargs,
) -> AutoscalePolicy:
    """Instantiate a policy by registry name (``slo`` feeds the slo policy)."""
    try:
        cls = AUTOSCALER_NAMES[name]
    except KeyError:
        known = ", ".join(sorted(AUTOSCALER_NAMES))
        raise UnknownNameError(f"unknown autoscaler {name!r} (known: {known})") from None
    if cls is SLOAutoscaler or cls is BurnRateAutoscaler:
        return cls(slo=slo, **kwargs)
    return cls(**kwargs)


def list_autoscalers() -> list[str]:
    return sorted(AUTOSCALER_NAMES)


# ----------------------------------------------------------------------
# Capacity-plan-derived bounds (PR-4 follow-on).
#
# ``plan`` is duck-typed rather than annotated as
# ``repro.cluster.planner.CapacityPlan`` because ``repro.cluster`` imports
# ``repro.control`` (the simulator hosts the control plane); any object
# with ``num_replicas``/``analytic_replicas``/``feasible`` works.


def derive_autoscaler_bounds(plan, surge_factor: float = 1.5) -> tuple[int, int]:
    """(min_replicas, max_replicas) from a capacity plan.

    The plan's ``num_replicas`` is the smallest fleet that met the SLO
    attainment target at the planned rate, so it becomes the floor —
    scaling below it would shed the planned goodput.  The ceiling leaves
    ``surge_factor`` headroom above the floor (rounded up, never below
    floor + 1 so the policy retains one step of surge room).  Infeasible
    plans raise: deriving bounds from a fleet that missed its target
    would institutionalise the miss.
    """
    if not surge_factor >= 1.0:
        raise ValueError(f"surge_factor must be >= 1, got {surge_factor}")
    if not plan.feasible:
        raise ValueError(
            f"capacity plan is infeasible at {plan.num_replicas} replicas; "
            "raise max_replicas in the planner before deriving bounds"
        )
    floor = int(plan.num_replicas)
    ceiling = max(floor + 1, math.ceil(floor * surge_factor))
    return floor, ceiling


def autoscaler_from_plan(
    name: str,
    plan,
    slo: ServiceLevelObjective | None = None,
    surge_factor: float = 1.5,
    **kwargs,
) -> AutoscalePolicy:
    """A registry policy sized by a capacity plan.

    The optimizer uses this to turn each frontier candidate's
    :class:`~repro.cluster.planner.CapacityPlan` into concrete
    ``QueueDepthAutoscaler``/``SLOAutoscaler`` parameters; explicit
    ``min_replicas``/``max_replicas`` kwargs would conflict with the
    derived bounds and are rejected.
    """
    for bound in ("min_replicas", "max_replicas"):
        if bound in kwargs:
            raise ValueError(
                f"{bound} is derived from the capacity plan; "
                "drop the explicit kwarg or call get_autoscaler directly"
            )
    floor, ceiling = derive_autoscaler_bounds(plan, surge_factor=surge_factor)
    return get_autoscaler(
        name, slo=slo, min_replicas=floor, max_replicas=ceiling, **kwargs
    )
