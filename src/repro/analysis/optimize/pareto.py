"""Exact non-dominated-set extraction.

Minimization convention throughout: a point ``a`` *dominates* ``b`` when
``a`` is no worse on every objective and strictly better on at least
one.  Maximized objectives are negated by the caller before extraction.

The extractor is one pass over the points in lexicographic order of
their objective tuples, keeping a point only when no frontier member
kept so far dominates it.  It is exact for any number of objectives, not
a heuristic: a dominator is no worse everywhere and strictly better
somewhere, so it is lexicographically strictly smaller and is visited
first; and dominance is transitive, so a dominated point is also
dominated by some earlier *frontier* member, which is all the pass
checks against.  Cost is O(n log n + n·f) for a frontier of f points
instead of the O(n^2) pairwise scan, and the test suite cross-checks the
result against an independent pairwise definition.  No epsilon is used,
and ties are kept: two identical points do not dominate each other, and
both survive, which keeps extraction order-independent and therefore
deterministic under the search space's fixed enumeration order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["dominates", "non_dominated_indices"]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` Pareto-dominates ``b`` (minimization)."""
    if len(a) != len(b):
        raise ValueError(f"objective arity mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def non_dominated_indices(points: Sequence[Sequence[float]]) -> list[int]:
    """Indices (input order) of the exact non-dominated subset.

    NaN objectives are rejected outright — NaN comparisons are false in
    both directions, which would make "dominated" silently depend on
    operand order.  Callers filter unevaluable candidates (OOM lanes,
    infeasible replica counts) *before* extraction; infinities are legal
    (an inf objective simply never wins that dimension).  Every point
    must have the same arity; that is checked up front because tuple
    ordering would otherwise accept mixed lengths silently.
    """
    vectors = [tuple(point) for point in points]
    for index, vector in enumerate(vectors):
        if len(vector) != len(vectors[0]):
            raise ValueError(
                f"objective arity mismatch: point {index} has {len(vector)}, "
                f"point 0 has {len(vectors[0])}"
            )
        if any(math.isnan(value) for value in vector):
            raise ValueError(f"point {index} has NaN objectives: {vector}")
    frontier: list[int] = []
    for i in sorted(range(len(vectors)), key=vectors.__getitem__):
        if not any(dominates(vectors[f], vectors[i]) for f in frontier):
            frontier.append(i)
    frontier.sort()
    return frontier
