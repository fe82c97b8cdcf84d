"""Energy accounting: joules per token and per request.

The paper reports average power and performance-per-watt for Nvidia GPUs
and notes that "these measurements on other hardware are planned for future
work" (Section III-5e).  This module closes that gap in the simulator: with
the utilization-based power model available for every platform, energy
integrals come for free, enabling the energy-per-token comparisons the
paper defers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import InferenceMetrics

__all__ = ["EnergyReport", "energy_report"]


@dataclass(frozen=True)
class EnergyReport:
    """Energy view of one benchmark point."""

    total_energy_j: float
    tokens: int
    requests: int
    average_power_w: float

    def __post_init__(self) -> None:
        if self.total_energy_j < 0:
            raise ValueError("energy must be >= 0")
        if self.tokens < 1 or self.requests < 1:
            raise ValueError("tokens and requests must be >= 1")

    @property
    def joules_per_token(self) -> float:
        return self.total_energy_j / self.tokens

    @property
    def joules_per_request(self) -> float:
        return self.total_energy_j / self.requests

    @property
    def tokens_per_joule(self) -> float:
        return self.tokens / self.total_energy_j

    def scaled_to_requests(self, requests_per_day: float) -> float:
        """Projected daily energy (kWh) at a sustained request rate."""
        if requests_per_day <= 0:
            raise ValueError("requests_per_day must be positive")
        return self.joules_per_request * requests_per_day / 3.6e6


def energy_report(metrics: InferenceMetrics) -> EnergyReport:
    """Energy view of an estimator/engine result.

    Energy = average power x end-to-end time; tokens follow the paper's
    Eq. 2 numerator (input + output across the batch).
    """
    if metrics.oom:
        raise ValueError("cannot account energy for an OOM configuration")
    if metrics.average_power_w is None:
        raise ValueError("metrics carry no power estimate")
    tokens = metrics.batch_size * (metrics.input_tokens + metrics.output_tokens)
    energy = metrics.average_power_w * metrics.end_to_end_latency_s
    return EnergyReport(
        total_energy_j=energy,
        tokens=tokens,
        requests=metrics.batch_size,
        average_power_w=metrics.average_power_w,
    )
