"""The resilience control plane that co-simulates with the cluster.

A :class:`ControlPlane` bundles the three resilience levers the cluster
simulator understands:

* a :class:`~repro.control.faults.FaultSchedule` replayed on the
  simulation clock (crashes, straggler windows, KV-handoff loss),
* a :class:`~repro.control.faults.RetryPolicy` governing how displaced
  requests re-enter the router,
* an :class:`~repro.control.autoscale.AutoscalePolicy` consulted on a
  fixed control tick, with replica warm-up (weight load over the node
  interconnect) priced from the hardware spec.

The default-constructed plane is **null**: no faults, no retries needed,
no autoscaler (``None``).  The simulator
treats a null plane exactly like no plane at all — it pushes no control
events onto the heap and emits no fleet gauges — so ``ClusterResult``
stays bit-identical to an uncontrolled run (tested).
"""

from __future__ import annotations

from repro.control.autoscale import AutoscalePolicy
from repro.control.faults import FaultSchedule, RetryPolicy
from repro.hardware.interconnect import p2p_time
from repro.perf.phases import Deployment

__all__ = ["ControlPlane"]


class ControlPlane:
    """Configuration + pricing for fault/autoscale co-simulation.

    ``tick_interval_s`` spaces the autoscaler's observation points on the
    simulation clock.  Scaled-up replicas come up as the cluster's base
    deployment.
    """

    def __init__(
        self,
        faults: FaultSchedule | None = None,
        autoscaler: AutoscalePolicy | None = None,
        retry: RetryPolicy | None = None,
        tick_interval_s: float = 0.5,
    ) -> None:
        if tick_interval_s <= 0:
            raise ValueError(
                f"tick_interval_s must be positive, got {tick_interval_s}"
            )
        self.faults = faults or FaultSchedule()
        self.autoscaler = autoscaler
        self.retry = retry or RetryPolicy()
        self.tick_interval_s = tick_interval_s

    @property
    def is_null(self) -> bool:
        """True when the plane can never perturb a run.

        A null plane has no faults to replay and no autoscaler, so the
        simulator skips control events entirely and the result is
        bit-identical to an uncontrolled run.
        """
        return not self.faults and self.autoscaler is None

    def warmup_s(self, deployment: Deployment) -> float:
        """Weight-load delay before a freshly scaled replica serves.

        Each device pulls its shard of the (framework-inflated) weight
        footprint over the node interconnect — the realistic floor for
        loading from a weight cache or peer replica.
        """
        per_device = deployment.capacity.weight_bytes / deployment.num_devices
        return p2p_time(deployment.hardware.interconnect, per_device)
