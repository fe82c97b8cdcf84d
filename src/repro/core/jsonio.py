"""The one JSON convention of the package's result artifacts (Chrome
trace files keep the ``trace_event`` layout of :mod:`repro.obs.export`).

Canonical text: sorted keys, ``indent=1``, trailing newline — two saves
of the same payload are file-identical, which is what the byte-diffing
determinism checks compare.

Non-finite scalars (NaN, ±inf) serialise as ``null`` — bare ``NaN``
tokens are not JSON — and load back as NaN.  Two flavours:

* :func:`json_num` / :func:`from_json_num` pass numbers through
  untouched, so an integer-valued gauge stat reloads as the same int
  and a re-saved bundle stays byte-identical;
* :func:`json_float` / :func:`from_json_float` coerce to ``float`` for
  fields declared as floats, so ``offered_rate_rps=4`` writes ``4.0``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

__all__ = [
    "dumps",
    "from_json_float",
    "from_json_num",
    "json_float",
    "json_num",
    "write_json",
]


def json_num(value: float) -> float | None:
    """JSON-safe scalar: ``None`` for NaN/inf, numbers untouched."""
    return value if math.isfinite(value) else None


def from_json_num(value: float | None) -> float:
    """Inverse of :func:`json_num`: ``None`` back to NaN."""
    return float("nan") if value is None else value


def json_float(value: float) -> float | None:
    """:func:`json_num` after coercing ``value`` to ``float``."""
    return json_num(float(value))


def from_json_float(value: object) -> float:
    """Inverse of :func:`json_float`: ``None`` to NaN, else ``float``."""
    return float("nan") if value is None else float(value)  # type: ignore[arg-type]


def dumps(payload: object) -> str:
    """Canonical artifact text: sorted keys, indent 1, trailing newline."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def write_json(path: str | Path, payload: object) -> None:
    """Write :func:`dumps` of ``payload`` to ``path``."""
    Path(path).write_text(dumps(payload), encoding="utf-8")
