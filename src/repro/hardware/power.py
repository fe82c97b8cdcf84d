"""Accelerator power model and a pynvml-compatible measurement shim.

The paper reports *average power* (total energy / total time) of the
accelerators only, measured via pynvml on Nvidia GPUs (Section III-5e).
We model instantaneous device power as

    P(u) = idle + (TDP - idle) * u**gamma

where ``u`` is the roofline utilization of the busiest leg (compute or
memory) and ``gamma < 1`` reflects that memory-bound phases still burn
substantial dynamic power.  The ``PynvmlLikeMonitor`` mimics the pynvml
sampling API the paper's harness uses, so the measurement code path is
exercised realistically (sampled integration, not closed form).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.xp import FLOATS
from repro.hardware.spec import HardwareSpec

__all__ = ["PowerModel", "PowerSample", "PynvmlLikeMonitor"]

_GAMMA = 0.70


@dataclass(frozen=True)
class PowerModel:
    """Utilization -> watts mapping for one accelerator group."""

    spec: HardwareSpec
    num_devices: int = 1
    gamma: float = _GAMMA

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")

    def device_power_w(self, utilization: float, xp=FLOATS) -> float:
        """Instantaneous power of one device at a utilization in [0, 1]
        (``xp``: a :mod:`repro.core.xp` namespace)."""
        if not xp.all((0.0 <= utilization) & (utilization <= 1.0)):
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        dynamic = self.spec.tdp_w - self.spec.idle_power_w
        return self.spec.idle_power_w + dynamic * xp.power(utilization, self.gamma)

    def group_power_w(self, utilization: float, xp=FLOATS) -> float:
        """Instantaneous power of the whole TP/PP group."""
        return self.num_devices * self.device_power_w(utilization, xp)

    def average_power_w(
        self, phase_durations_s: list[float], phase_utilizations: list[float]
    ) -> float:
        """Energy-weighted average power over a sequence of phases."""
        if len(phase_durations_s) != len(phase_utilizations):
            raise ValueError("durations and utilizations must align")
        if not phase_durations_s:
            raise ValueError("need at least one phase")
        total_time = sum(phase_durations_s)
        if total_time <= 0:
            raise ValueError("total duration must be positive")
        energy = sum(
            t * self.group_power_w(u)
            for t, u in zip(phase_durations_s, phase_utilizations)
        )
        return energy / total_time


@dataclass(frozen=True)
class PowerSample:
    """One power reading, mirroring nvmlDeviceGetPowerUsage semantics."""

    timestamp_s: float
    power_mw: float  # pynvml reports milliwatts


@dataclass
class PynvmlLikeMonitor:
    """Sampling power monitor with the shape of the paper's pynvml loop.

    The benchmark harness drives it with (time, utilization) updates from
    the simulator clock; ``average_power_w`` integrates the samples with a
    trapezoidal rule, exactly like a wall-clock sampling thread would.
    """

    model: PowerModel
    samples: list[PowerSample] = field(default_factory=list)

    def sample(self, timestamp_s: float, utilization: float) -> PowerSample:
        if self.samples and timestamp_s < self.samples[-1].timestamp_s:
            raise ValueError("samples must be recorded in time order")
        reading = PowerSample(
            timestamp_s=timestamp_s,
            power_mw=self.model.group_power_w(utilization) * 1000.0,
        )
        self.samples.append(reading)
        return reading

    def average_power_w(self) -> float:
        if len(self.samples) < 2:
            raise RuntimeError("need at least two samples to average power")
        energy_mj = 0.0
        for prev, cur in zip(self.samples, self.samples[1:]):
            dt = cur.timestamp_s - prev.timestamp_s
            energy_mj += 0.5 * (prev.power_mw + cur.power_mw) * dt
        span = self.samples[-1].timestamp_s - self.samples[0].timestamp_s
        if span <= 0:
            raise RuntimeError("samples span zero time")
        return energy_mj / span / 1000.0

    def reset(self) -> None:
        self.samples.clear()
