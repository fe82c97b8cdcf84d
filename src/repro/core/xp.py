"""Float-or-array arithmetic for expressions written once.

The step-cost model (:mod:`repro.perf.phases`) and the primitives it
calls take an ``xp`` namespace and otherwise use only ordinary operators,
so one expression prices a single step over Python floats (``FLOATS``)
or a whole sweep grid over numpy arrays (``ARRAYS``).  The caller picks
the namespace once; nothing checks types per operation.

``FLOATS.power`` is ``**`` and ``ARRAYS.power`` is ``np.power``.  The two
can round differently in the last ulp (numpy's vectorized ``pow``), so
each side keeps its own: a scalar step never goes through numpy.
``any`` and ``all`` are for argument checks, which must work on either
(``ARRAYS`` expects ndarray operands there).
"""

from __future__ import annotations

import operator
from types import SimpleNamespace

import numpy as np

__all__ = ["ARRAYS", "FLOATS"]

FLOATS = SimpleNamespace(
    minimum=min,
    maximum=max,
    where=lambda condition, a, b: a if condition else b,
    power=operator.pow,
    any=bool,
    all=bool,
)

ARRAYS = SimpleNamespace(
    minimum=np.minimum,
    maximum=np.maximum,
    where=np.where,
    power=np.power,
    any=np.ndarray.any,
    all=np.ndarray.all,
)
