"""Resilience control plane: fault injection, autoscaling, retries.

The ``repro.control`` subsystem co-simulates with
:class:`~repro.cluster.simulator.ClusterSimulator`: a seeded
:class:`FaultSchedule` replays crashes/stragglers/KV-loss on the
simulation clock, a :class:`RetryPolicy` re-queues displaced requests
with capped exponential backoff, and a pluggable
:class:`AutoscalePolicy` resizes the fleet against queue-depth or SLO
signals with cooldown and warm-up pricing.  A default-constructed
:class:`ControlPlane` is null and provably inert (bit-identical
results to an uncontrolled run).
"""

from repro.control.autoscale import (
    AUTOSCALER_NAMES,
    AutoscalePolicy,
    BurnRateAutoscaler,
    FleetView,
    QueueDepthAutoscaler,
    SLOAutoscaler,
    TelemetryFleetView,
    autoscaler_from_plan,
    derive_autoscaler_bounds,
    get_autoscaler,
    list_autoscalers,
)
from repro.control.faults import FAULT_KINDS, FaultEvent, FaultSchedule, RetryPolicy
from repro.control.plane import ControlPlane

__all__ = [
    "AUTOSCALER_NAMES",
    "AutoscalePolicy",
    "BurnRateAutoscaler",
    "ControlPlane",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "FleetView",
    "QueueDepthAutoscaler",
    "RetryPolicy",
    "SLOAutoscaler",
    "TelemetryFleetView",
    "autoscaler_from_plan",
    "derive_autoscaler_bounds",
    "get_autoscaler",
    "list_autoscalers",
]
