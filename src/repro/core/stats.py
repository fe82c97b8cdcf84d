"""The float statistics that reach an output: total, mean and percentile.

Every output mean and percentile comes from here, so each metric has one
definition and the same bytes on every interpreter.  :func:`total` adds
left to right in a plain float loop: the built-in ``sum`` compensates
rounding from Python 3.12 on and ``math.fsum`` rounds exactly, so either
would change the committed goldens, which plain addition rendered.
:func:`percentile` is ``numpy.percentile``'s default linear rule in
numpy's own float expression, so the two agree exactly.  Integer sums
and counts stay the built-in ``sum``: they are exact.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["mean", "percentile", "total"]


def total(values: Iterable[float]) -> float:
    """Left-to-right float sum of ``values``, starting from ``0.0``."""
    acc = 0.0
    for value in values:
        acc += value
    return acc


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of ``values``; NaN when there are none."""
    values = list(values)
    return total(values) / len(values) if values else float("nan")


def percentile(values: Iterable[float], q: float) -> float:
    """``numpy.percentile(values, q)`` (linear rule); NaN when empty."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    n = len(ordered)
    rank = (n - 1) * (q / 100)
    lo = int(rank)
    a, b = ordered[lo], ordered[min(lo + 1, n - 1)]
    t = rank - lo
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t
