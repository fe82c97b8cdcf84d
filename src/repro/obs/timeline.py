"""Per-request timelines: each request's life through the serving engine.

A :class:`RequestTimeline` reconstructs one ``GenerationRequest``'s path —
arrival → admit wait → prefill → decode → retire — from the timestamps the
engine records, for tail-latency analysis: *which* requests waited, *where*
a p99 TTFT came from, how preemption stretched a particular stream.

Timelines are pure derivations (no tracer required): the engine stamps
``arrival_time``, ``admit_time``, ``first_token_time`` and ``finish_time``
on every request it runs, so ``EngineResult.timelines`` is available even
for completed runs loaded from elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.request import GenerationRequest

__all__ = ["RequestTimeline", "build_timelines", "timeline_table"]


@dataclass(frozen=True)
class RequestTimeline:
    """Milestones of one request on the simulation clock (seconds).

    ``request_id`` is the label its run assigned (``None`` for a request
    that never entered a run).
    """

    request_id: int | None
    input_tokens: int
    output_tokens: int
    arrival_s: float
    admit_s: float | None
    first_token_s: float | None
    finish_s: float | None
    preemptions: int = 0

    def __post_init__(self) -> None:
        # Milestones must be monotone: arrival <= admit <= first token
        # <= finish, with later ones allowed to be missing (OOM'd runs).
        stages = [
            ("arrival", self.arrival_s),
            ("admit", self.admit_s),
            ("first_token", self.first_token_s),
            ("finish", self.finish_s),
        ]
        previous_name, previous = stages[0]
        for name, value in stages[1:]:
            if value is None:
                continue
            if previous is not None and value < previous:
                raise ValueError(
                    f"request {self.request_id}: {name} ({value}) precedes "
                    f"{previous_name} ({previous})"
                )
            previous_name, previous = name, value

    @classmethod
    def of(cls, request: GenerationRequest) -> "RequestTimeline":
        return cls(
            request_id=request.request_id,
            input_tokens=request.input_tokens,
            output_tokens=request.output_tokens,
            arrival_s=request.arrival_time,
            admit_s=request.admit_time,
            first_token_s=request.first_token_time,
            finish_s=request.finish_time,
            preemptions=request.preemptions,
        )

    # -- derived intervals ---------------------------------------------

    @property
    def queue_wait_s(self) -> float:
        """Arrival to first admission (the admit-wait interval)."""
        if self.admit_s is None:
            return float("nan")
        return self.admit_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        if self.first_token_s is None:
            return float("nan")
        return self.first_token_s - self.arrival_s

    @property
    def prefill_s(self) -> float:
        """First admission to first token (prefill incl. chunking)."""
        if self.admit_s is None or self.first_token_s is None:
            return float("nan")
        return self.first_token_s - self.admit_s

    @property
    def decode_s(self) -> float:
        """First token to retirement (the streaming interval)."""
        if self.first_token_s is None or self.finish_s is None:
            return float("nan")
        return self.finish_s - self.first_token_s

    @property
    def mean_decode_gap_s(self) -> float:
        """Per-request mean inter-token gap (its own ITL)."""
        if self.first_token_s is None or self.finish_s is None:
            return float("nan")
        if self.output_tokens <= 1:
            return 0.0
        return self.decode_s / (self.output_tokens - 1)

    @property
    def e2e_s(self) -> float:
        if self.finish_s is None:
            return float("nan")
        return self.finish_s - self.arrival_s

    @property
    def completed(self) -> bool:
        return self.finish_s is not None


def build_timelines(requests: list[GenerationRequest]) -> list[RequestTimeline]:
    """Timelines for a trace's requests, in arrival order."""
    timelines = [RequestTimeline.of(r) for r in requests]
    timelines.sort(key=lambda t: (t.arrival_s, t.request_id))
    return timelines


def timeline_table(timelines: list[RequestTimeline], limit: int | None = None) -> str:
    """Render timelines as a fixed-width table (slowest TTFT first); a
    request without a label shows ``-``."""
    if not timelines:
        return "(no requests)"
    ranked = sorted(
        timelines, key=lambda t: (t.ttft_s != t.ttft_s, -t.ttft_s if t.ttft_s == t.ttft_s else 0.0)
    )
    if limit is not None:
        ranked = ranked[:limit]
    lines = [
        f"{'req':>5} {'in':>6} {'out':>6} {'arrive':>9} {'wait':>9} "
        f"{'prefill':>9} {'decode':>9} {'ttft':>9} {'gap':>9} {'pre':>4}"
    ]
    for t in ranked:
        lines.append(
            f"{'-' if t.request_id is None else t.request_id:>5} "
            f"{t.input_tokens:>6d} {t.output_tokens:>6d} "
            f"{t.arrival_s:>9.3f} {t.queue_wait_s:>9.3f} {t.prefill_s:>9.3f} "
            f"{t.decode_s:>9.3f} {t.ttft_s:>9.3f} {t.mean_decode_gap_s:>9.4f} "
            f"{t.preemptions:>4d}"
        )
    return "\n".join(lines)
