"""Request and generation-configuration types.

``GenerationConfig`` captures the paper's token-generation parameters
(Section III-2): input length, output size (max_new_tokens) and batch size.
``GenerationRequest`` is the unit of work the discrete-event serving engine
(:mod:`repro.runtime.engine`) schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stats import total

__all__ = ["GenerationConfig", "GenerationRequest", "RequestState", "mean_itl_s"]


@dataclass(frozen=True)
class GenerationConfig:
    """Workload shape for one benchmark point.

    The paper sweeps input/output lengths of {128, 256, 512, 1024, 2048}
    and batch sizes of {1, 16, 32, 64}.
    """

    input_tokens: int
    output_tokens: int
    batch_size: int = 1

    # Paper sweep values, exposed for the bench harness.
    PAPER_LENGTHS = (128, 256, 512, 1024, 2048)
    PAPER_BATCH_SIZES = (1, 16, 32, 64)

    def __post_init__(self) -> None:
        if self.input_tokens < 1:
            raise ValueError(f"input_tokens must be >= 1, got {self.input_tokens}")
        if self.output_tokens < 1:
            raise ValueError(f"output_tokens must be >= 1, got {self.output_tokens}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    @property
    def total_tokens_per_sequence(self) -> int:
        """Final context length a sequence reaches (input + output)."""
        return self.input_tokens + self.output_tokens

    @property
    def total_tokens(self) -> int:
        """Total tokens processed across the batch (Eq. 2 numerator)."""
        return self.batch_size * self.total_tokens_per_sequence

    @property
    def midpoint_context(self) -> int:
        """The decode phase's mean context: the step priced at it, times
        the step count, stands for the whole phase (the midpoint rule)."""
        return max(1, round(self.input_tokens + (self.output_tokens + 1) / 2))


class RequestState:
    """Lifecycle states of a request inside the serving engine."""

    QUEUED = "queued"
    PREFILLING = "prefilling"
    DECODING = "decoding"
    FINISHED = "finished"
    FAILED = "failed"


@dataclass(eq=False)
class GenerationRequest:
    """One inference request flowing through the serving runtime.

    Times are simulation-clock seconds.  ``first_token_time`` minus
    ``arrival_time`` is the request's TTFT; ``finish_time`` minus
    ``arrival_time`` its end-to-end latency.

    A request's identity is the object itself: it compares and hashes as
    itself.  ``request_id`` is only an output label, assigned by the run
    that executes the request (``None`` outside any run).
    """

    input_tokens: int
    output_tokens: int
    arrival_time: float = 0.0
    request_id: int | None = None
    state: str = RequestState.QUEUED
    generated_tokens: int = 0
    admit_time: float | None = None  # first admission (per-request timelines)
    first_token_time: float | None = None
    finish_time: float | None = None
    # Preemption-and-recompute support (vLLM's optimistic admission): when
    # a request is evicted mid-decode, ``restart_context`` records the
    # context length to re-prefill on its next admission, and
    # ``preemptions`` counts how often that happened.
    restart_context: int = 0
    preemptions: int = 0
    # Shared-prefix identity (cluster routing): requests carrying the same
    # ``prefix_id`` open with an identical ``prefix_tokens``-long prompt
    # prefix (a system prompt, a chat session).  When the serving side
    # already holds that prefix's KV blocks it sets
    # ``cached_prefix_tokens`` so prefill covers only the suffix.
    prefix_id: int | None = None
    prefix_tokens: int = 0
    cached_prefix_tokens: int = 0
    # Scenario identity (:mod:`repro.scenarios`): multi-turn conversations
    # carry a ``session_id`` shared by all their turns (turn N's prompt
    # extends turn N-1's context, so the session's KV is the reusable
    # prefix) and a 0-based ``turn_index``.  ``tenant`` names the traffic
    # class for per-tenant SLO accounting; ``None`` means untagged.
    session_id: int | None = None
    turn_index: int = 0
    tenant: str | None = None

    def __post_init__(self) -> None:
        if self.input_tokens < 1:
            raise ValueError(f"input_tokens must be >= 1, got {self.input_tokens}")
        if self.output_tokens < 1:
            raise ValueError(f"output_tokens must be >= 1, got {self.output_tokens}")
        if self.arrival_time < 0.0:
            raise ValueError(f"arrival_time must be >= 0, got {self.arrival_time}")
        if not 0 <= self.prefix_tokens <= self.input_tokens:
            raise ValueError(
                f"prefix_tokens must be in [0, input_tokens], got {self.prefix_tokens}"
            )
        if not 0 <= self.cached_prefix_tokens <= self.prefix_tokens:
            raise ValueError(
                "cached_prefix_tokens must be in [0, prefix_tokens], got "
                f"{self.cached_prefix_tokens}"
            )
        if self.turn_index < 0:
            raise ValueError(f"turn_index must be >= 0, got {self.turn_index}")

    @property
    def context_length(self) -> int:
        """Current context length: prompt plus tokens generated so far."""
        return self.input_tokens + self.generated_tokens

    @property
    def is_finished(self) -> bool:
        return self.state == RequestState.FINISHED

    @property
    def ttft_s(self) -> float:
        if self.first_token_time is None:
            raise RuntimeError(f"request {self.request_id} has not produced a token")
        return self.first_token_time - self.arrival_time

    @property
    def end_to_end_latency_s(self) -> float:
        if self.finish_time is None:
            raise RuntimeError(f"request {self.request_id} has not finished")
        return self.finish_time - self.arrival_time

    @property
    def itl_s(self) -> float:
        """Mean inter-token latency: the streaming time after the first
        token over the remaining tokens.  Defined for finished requests
        with more than one output token."""
        if self.finish_time is None:
            raise RuntimeError(f"request {self.request_id} has not finished")
        return (self.finish_time - self.first_token_time) / (self.output_tokens - 1)

    @property
    def ntpot_s(self) -> float:
        """Normalized time per output token: the end-to-end latency over
        the output tokens, queueing and prefill included (unlike ITL)."""
        return self.end_to_end_latency_s / self.output_tokens

    def record_token(self, now: float) -> None:
        """Account one generated token at simulation time ``now``."""
        if self.generated_tokens >= self.output_tokens:
            raise RuntimeError(
                f"request {self.request_id} already generated all "
                f"{self.output_tokens} tokens"
            )
        self.generated_tokens += 1
        if self.first_token_time is None:
            self.first_token_time = now
            self.state = RequestState.DECODING
        if self.generated_tokens == self.output_tokens:
            self.finish_time = now
            self.state = RequestState.FINISHED

    def mark_preempted(self) -> None:
        """Evict the request mid-decode (vLLM recompute preemption).

        Already-generated tokens stay emitted; the engine re-prefills the
        full context (prompt + generated so far) on readmission.
        """
        if self.state not in (RequestState.PREFILLING, RequestState.DECODING):
            raise RuntimeError(
                f"request {self.request_id} is {self.state}; cannot preempt"
            )
        self.restart_context = self.context_length
        self.preemptions += 1
        self.state = RequestState.QUEUED

    @property
    def prefill_tokens_needed(self) -> int:
        """Context to (re-)prefill at the next admission.

        A recompute restart re-prefills everything (the preemption freed
        the KV, cached prefix included); otherwise a prefix-cache hit
        shrinks the prompt to its uncached suffix (at least one token, so
        prefill still emits the first output token).
        """
        if self.restart_context > 0:
            return self.restart_context
        return max(1, self.input_tokens - self.cached_prefix_tokens)


def mean_itl_s(requests: list[GenerationRequest]) -> float:
    """Mean inter-token gap over every decode interval of the finished
    requests (Eq. 1 analogue): their streaming time over their interval
    count, ``0.0`` when no finished request has more than one token."""
    streamed = [
        r for r in requests
        if r.finish_time is not None
        and r.first_token_time is not None
        and r.output_tokens > 1
    ]
    intervals = sum(r.output_tokens - 1 for r in streamed)
    if not intervals:
        return 0.0
    return total(r.finish_time - r.first_token_time for r in streamed) / intervals
