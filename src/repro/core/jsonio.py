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

Result records whose JSON is exactly their dataclass fields state that
schema once, as the fields: :func:`to_json_dict` / :func:`from_json_dict`
derive the JSON object from the field type hints, with the
``json_float`` flavour for ``float`` fields.  The class body says
``to_json_dict = jsonio.to_json_dict`` (plus ``from_json_dict =
classmethod(jsonio.from_json_dict)``).  Codec records: the load and
tenant reports, the optimizer's screened configs, screening stats,
refined candidates, report and search space, plan scores and capacity
plans, and — ``json_float`` since they moved onto the codec — telemetry
alerts and the replication metric summaries and test results.  Records
that rename keys, add derived ones or keep ints as ints (metrics
snapshots, profiles, seed results, bundles, specs) write their own
methods.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from collections.abc import Callable
from pathlib import Path

__all__ = [
    "dumps",
    "from_json_dict",
    "from_json_float",
    "from_json_num",
    "json_float",
    "json_num",
    "to_json_dict",
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


# ----------------------------------------------------------------------
# The record codec: a dataclass's JSON object is its fields.


def _same(value: object) -> object:
    return value


def _codec(hint: object) -> tuple[Callable, Callable]:
    """(encode, decode) of one field type hint."""
    if hint is float:
        return json_float, from_json_float
    if hint in (int, str, bool):
        return _same, hint  # type: ignore[return-value]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        (arm,) = [a for a in args if a is not types.NoneType]
        enc, dec = _codec(arm)
        return (
            lambda v: None if v is None else enc(v),
            lambda v: None if v is None else dec(v),
        )
    if origin is tuple and args[1:] == (Ellipsis,):
        enc, dec = _codec(args[0])
        return lambda v: [enc(x) for x in v], lambda v: tuple(dec(x) for x in v)
    if origin is tuple:
        pairs = [_codec(a) for a in args]
        return (
            lambda v: [enc(x) for (enc, _), x in zip(pairs, v)],
            lambda v: tuple(dec(x) for (_, dec), x in zip(pairs, v)),
        )
    if origin is dict:  # dict[str, X]
        enc, dec = _codec(args[1])
        return (
            lambda v: {k: enc(x) for k, x in v.items()},
            lambda v: {k: dec(x) for k, x in v.items()},
        )
    if dataclasses.is_dataclass(hint):
        return to_json_dict, lambda v: from_json_dict(hint, v)  # type: ignore[arg-type]
    return _same, _same


# class -> per field (name, encoder, decoder, has a default); type hints
# are resolved once per class, on its first encode or decode.
_FIELDS: dict[type, tuple[tuple[str, Callable, Callable, bool], ...]] = {}


def _fields(cls: type) -> tuple[tuple[str, Callable, Callable, bool], ...]:
    plan = _FIELDS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        plan = _FIELDS[cls] = tuple(
            (
                f.name,
                *_codec(hints[f.name]),
                f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING,
            )
            for f in dataclasses.fields(cls)
        )
    return plan


def to_json_dict(obj: object) -> dict[str, object]:
    """A dataclass instance as a JSON object keyed by its field names.

    ``float`` fields go through :func:`json_float`, tuples become lists,
    ``dict[str, X]`` maps value by value and nested dataclasses recurse;
    other values (``str``, ``int``, ``bool``, ``None``) pass unchanged.
    """
    return {
        name: encode(getattr(obj, name)) for name, encode, _, _ in _fields(type(obj))
    }


def from_json_dict(cls: type, payload: dict[str, object]) -> object:
    """Inverse of :func:`to_json_dict`: rebuild ``cls`` from ``payload``.

    Values are cast to their field types (``null`` floats load as NaN,
    lists load as tuples).  A key missing from ``payload`` takes the
    field's default; a missing key for a field without one raises
    ``KeyError``.
    """
    kwargs = {}
    for name, _, decode, has_default in _fields(cls):
        if name in payload:
            kwargs[name] = decode(payload[name])
        elif not has_default:
            raise KeyError(name)
    return cls(**kwargs)
