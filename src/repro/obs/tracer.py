"""Low-overhead event tracer for the serving simulator.

The tracer records *span* and *instant* events on the simulation clock as
the engine executes: admissions, prefill passes, decode spans, preemptions,
KV-pool changes and power samples.  Events export to Chrome
``trace_event`` JSON (:mod:`repro.obs.export`) so a run can be opened in
``chrome://tracing`` / Perfetto, and aggregate into per-request timelines
(:mod:`repro.obs.timeline`).

:class:`EventTracer` is the one tracer.  An untraced component holds
``tracer=None`` and emitters guard each event with ``if tracer is not
None``, so an untraced run builds no event arguments at all.

Timestamps are simulation-clock **seconds** (the engine's ``now``).  The
tracer also carries a monotonic clock (:meth:`EventTracer.advance`) so
emitters that do not track time themselves — the KV allocators, the
schedulers' preemption path — can stamp events with the engine's current
instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CATEGORIES",
    "TraceEvent",
    "EventTracer",
]

#: Event categories emitted by the serving runtime.
CATEGORIES = (
    "admit",
    "prefill",
    "decode_span",
    "preempt",
    "kv_alloc",
    "power_sample",
    "engine",
    "control",  # fault injections, retries, autoscale actions
    "profile",  # cost-attribution counter tracks (mfu, mbu, watts, ...)
)

# Chrome trace_event phase codes used by this tracer.
PHASE_COMPLETE = "X"  # span with a duration
PHASE_INSTANT = "i"  # point-in-time marker
PHASE_COUNTER = "C"  # sampled numeric series


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One trace event on the simulation clock.

    ``phase`` follows the Chrome ``trace_event`` phase codes: ``"X"``
    (complete span, ``dur_s`` meaningful), ``"i"`` (instant) or ``"C"``
    (counter sample, values in ``args``).
    """

    name: str
    category: str
    phase: str
    ts_s: float
    dur_s: float = 0.0
    args: dict[str, float | int | str] = field(default_factory=dict)

    def end_s(self) -> float:
        return self.ts_s + self.dur_s


class EventTracer:
    """Recording tracer: an append-only event list on a monotonic clock."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._clock_s = 0.0

    @property
    def now_s(self) -> float:
        return self._clock_s

    def advance(self, now_s: float) -> None:
        """Move the tracer's clock forward to the engine's ``now``."""
        if now_s < self._clock_s:
            raise ValueError(
                f"tracer clock cannot move backwards: {now_s} < {self._clock_s}"
            )
        self._clock_s = now_s

    def _stamp(self, ts_s: float | None) -> float:
        return self._clock_s if ts_s is None else ts_s

    def instant(self, category: str, name: str, ts_s: float | None = None, **args) -> None:
        """Record a point-in-time event (at the clock if ``ts_s`` is None)."""
        self.events.append(
            TraceEvent(name, category, PHASE_INSTANT, self._stamp(ts_s), 0.0, args)
        )

    def complete(self, category: str, name: str, ts_s: float, dur_s: float, **args) -> None:
        """Record a span ``[ts_s, ts_s + dur_s]``."""
        if dur_s < 0.0:
            raise ValueError(f"span duration must be >= 0, got {dur_s}")
        self.events.append(
            TraceEvent(name, category, PHASE_COMPLETE, ts_s, dur_s, args)
        )

    def counter(self, category: str, name: str, ts_s: float | None = None, **values) -> None:
        """Record a counter sample (numeric series over time)."""
        self.events.append(
            TraceEvent(name, category, PHASE_COUNTER, self._stamp(ts_s), 0.0, values)
        )

    # ------------------------------------------------------------------

    def events_in(self, category: str) -> list[TraceEvent]:
        return [e for e in self.events if e.category == category]

    def clear(self) -> None:
        self.events.clear()
        self._clock_s = 0.0
