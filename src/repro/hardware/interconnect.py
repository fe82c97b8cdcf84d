"""Collective-communication cost models for intra-node parallelism.

Tensor parallelism issues all-reduces, pipeline parallelism point-to-point
activation sends, expert parallelism all-to-all token exchanges (paper
Section IV-C).  Costs follow the standard alpha-beta (latency-bandwidth)
model with ring-algorithm volume factors.  The collectives the step
model prices take an ``xp`` namespace (:mod:`repro.core.xp`), so a sweep
grid evaluates them over an array of message sizes.
"""

from __future__ import annotations

from repro.core.xp import FLOATS
from repro.hardware.spec import InterconnectSpec

__all__ = [
    "allreduce_time",
    "allgather_time",
    "reduce_scatter_time",
    "all_to_all_time",
    "p2p_time",
]


def _validate(message_bytes: float, num_devices: int, xp=FLOATS) -> None:
    if xp.any(message_bytes < 0):
        raise ValueError(f"message_bytes must be >= 0, got {message_bytes}")
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")


def allreduce_time(
    link: InterconnectSpec, message_bytes: float, num_devices: int, xp=FLOATS
) -> float:
    """Ring all-reduce: 2(n-1)/n of the message crosses each link."""
    _validate(message_bytes, num_devices, xp)
    if num_devices == 1:
        return 0.0
    volume = 2.0 * (num_devices - 1) / num_devices * message_bytes
    hops = 2 * (num_devices - 1)
    time = volume / link.bandwidth_bytes_s + hops * link.latency_s
    return xp.where(message_bytes == 0, 0.0, time)


def allgather_time(
    link: InterconnectSpec, message_bytes: float, num_devices: int
) -> float:
    """Ring all-gather of per-device shards totalling ``message_bytes``."""
    _validate(message_bytes, num_devices)
    if num_devices == 1 or message_bytes == 0:
        return 0.0
    volume = (num_devices - 1) / num_devices * message_bytes
    return volume / link.bandwidth_bytes_s + (num_devices - 1) * link.latency_s


def reduce_scatter_time(
    link: InterconnectSpec, message_bytes: float, num_devices: int
) -> float:
    """Ring reduce-scatter; same volume shape as all-gather."""
    return allgather_time(link, message_bytes, num_devices)


def all_to_all_time(
    link: InterconnectSpec, message_bytes: float, num_devices: int, xp=FLOATS
) -> float:
    """All-to-all exchange (expert parallelism's token shuffle).

    Each device keeps 1/n of its data and sends the rest; pairwise exchange
    needs n-1 rounds of latency.
    """
    _validate(message_bytes, num_devices, xp)
    if num_devices == 1:
        return 0.0
    volume = (num_devices - 1) / num_devices * message_bytes
    time = volume / link.bandwidth_bytes_s + (num_devices - 1) * link.latency_s
    return xp.where(message_bytes == 0, 0.0, time)


def p2p_time(link: InterconnectSpec, message_bytes: float, xp=FLOATS) -> float:
    """One point-to-point transfer (pipeline-parallel activation handoff)."""
    if xp.any(message_bytes < 0):
        raise ValueError(f"message_bytes must be >= 0, got {message_bytes}")
    time = message_bytes / link.bandwidth_bytes_s + link.latency_s
    return xp.where(message_bytes == 0, 0.0, time)
