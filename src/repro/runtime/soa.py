"""Struct-of-arrays request columns (retired; nothing in ``repro`` imports it).

:class:`RequestTable` once mirrored a scheduler's ``running`` list as
parallel int64 numpy columns (input tokens, output budget, generated so
far) so the engine could commit decode spans as array operations.  The
engine now commits each span in one pass over the request objects
themselves, which keeps one copy of the running-set state and measured
faster than maintaining the mirror.

The module stays importable only because the end-to-end benchmark
harness (``benchmarks/e2e/layers.py``) still lists
``repro.runtime.soa.RequestTable`` as a timed layer; its ``soa.calls``
metric now reads 0.  Delete this file together with that harness target.
"""

from __future__ import annotations

import numpy as np

from repro.core.request import GenerationRequest, RequestState

__all__ = ["RequestTable"]

_MIN_CAPACITY = 64


class RequestTable:
    """Parallel int64 columns over a scheduler's running set."""

    __slots__ = ("_input", "_output", "_generated", "n")

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        capacity = max(capacity, _MIN_CAPACITY)
        self._input = np.empty(capacity, dtype=np.int64)
        self._output = np.empty(capacity, dtype=np.int64)
        self._generated = np.empty(capacity, dtype=np.int64)
        self.n = 0

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # Row maintenance (mirrors scheduler.running mutations).

    def _grow(self) -> None:
        capacity = len(self._input) * 2
        for name in ("_input", "_output", "_generated"):
            column = getattr(self, name)
            grown = np.empty(capacity, dtype=np.int64)
            grown[: self.n] = column[: self.n]
            setattr(self, name, grown)

    def append(self, request: GenerationRequest) -> None:
        """Add a row for a freshly admitted request (``running.append``)."""
        if self.n == len(self._input):
            self._grow()
        i = self.n
        self._input[i] = request.input_tokens
        self._output[i] = request.output_tokens
        self._generated[i] = request.generated_tokens
        self.n = i + 1

    def sync_tail(self, running: list[GenerationRequest], count: int) -> None:
        """Re-copy the last ``count`` rows from their objects.

        Called after a prefill pass mutated the admitted requests through
        the scalar object path (first token, preempted-resume state): the
        admitted set always occupies the table's tail because admission
        appends and nothing retires mid-pass.
        """
        for i in range(self.n - count, self.n):
            self._generated[i] = running[i].generated_tokens

    def drop(self, index: int) -> None:
        """Remove one row preserving order (``running.remove`` analogue)."""
        n = self.n
        if not 0 <= index < n:
            raise IndexError(f"row {index} out of range for table of {n}")
        for name in ("_input", "_output", "_generated"):
            column = getattr(self, name)
            column[index : n - 1] = column[index + 1 : n]
        self.n = n - 1

    def compact(self, keep: np.ndarray) -> None:
        """Keep only rows ``keep`` (sorted indices), preserving order."""
        m = len(keep)
        for name in ("_input", "_output", "_generated"):
            column = getattr(self, name)
            column[:m] = column[: self.n][keep]
        self.n = m

    def clear(self) -> None:
        self.n = 0

    # ------------------------------------------------------------------
    # Reductions the engine's span logic needs (all exact int arithmetic).

    def min_remaining(self) -> int:
        """Fewest output tokens any running request still owes."""
        n = self.n
        return int((self._output[:n] - self._generated[:n]).min())

    def context_sum(self) -> int:
        """Sum of current context lengths (input + generated)."""
        n = self.n
        return int(self._input[:n].sum() + self._generated[:n].sum())

    def finished_rows(self) -> np.ndarray:
        """Sorted row indices whose generation budget is exhausted."""
        n = self.n
        return np.nonzero(self._generated[:n] >= self._output[:n])[0]

    # ------------------------------------------------------------------
    # Vectorized commits.

    def commit_decode(self, steps: int) -> np.ndarray:
        """Advance every row by ``steps`` tokens; returns finished rows.

        The caller guarantees ``steps <= min_remaining()`` (the span rule),
        so no row overshoots its budget and every finisher finishes exactly
        at the span's last step — the same invariant the scalar reference
        loop enforces via ``record_token``.
        """
        n = self.n
        gen = self._generated[:n]
        gen += steps
        return np.nonzero(gen >= self._output[:n])[0]

    def commit_rider_chunk(self, count: int) -> tuple[int, np.ndarray]:
        """One rider token for the first ``count`` rows that still owe output.

        Returns ``(tokens_given, newly_finished_rows)`` — the vectorized
        equivalent of the scalar per-chunk rider loop in ``_run_prefill``.
        """
        gen = self._generated[:count]
        out = self._output[:count]
        active = gen < out
        gen += active  # one token to each still-active rider
        newly = np.nonzero(active & (gen >= out))[0]
        return int(active.sum()), newly

    # ------------------------------------------------------------------
    # Object synchronization.

    def generated_of(self, index: int) -> int:
        return int(self._generated[index])

    def flush(self, running: list[GenerationRequest]) -> None:
        """Write ``generated_tokens`` back to scheduler-owned objects.

        Only requests still in PREFILLING/DECODING state are touched:
        finishers were synced eagerly at commit time, and requests the
        control plane reclaimed (crash victims reset to QUEUED/FAILED)
        must keep their reset state.
        """
        gen = self._generated
        for i in range(self.n):
            request = running[i]
            if request.state in (RequestState.PREFILLING, RequestState.DECODING):
                request.generated_tokens = int(gen[i])
