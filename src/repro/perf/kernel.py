"""Memoized step-cost kernel and vectorized sweeps over the one roofline.

Every quantity the paper reports is priced by
:class:`~repro.perf.phases.StepModel`, the roofline written once as an
expression over floats or numpy arrays.  Evaluating it costs a few
microseconds, and engine runs, cluster simulations and figure sweeps
evaluate it millions of times.  :class:`StepCostKernel` calls the same
expression two ways:

* **scalar steps** — three accessors.
  :meth:`StepCostKernel.decode_cost` and
  :meth:`StepCostKernel.prefill_cost` memoize each priced step in a
  bounded LRU.  A step is one :class:`~repro.perf.phases.StepCost` record
  (breakdown, watts, FLOPs and bytes); callers read the field they need
  from it, so every view of a step comes from one lookup.  With the KV
  cache on, a decode step's :class:`~repro.perf.phases.StepCoeffs` do not
  depend on its context, so they are built once per batch size and a new
  context only evaluates the roofline at that point.
  :meth:`StepCostKernel.decode_step` answers what a decode span needs,
  a step's ``(total_s, power_w)``, from a **decode row**: per batch size,
  blocks of 256 consecutive contexts, each filled by one pass of the
  roofline over a numpy array of contexts.  A row stores two floats per
  context (16 bytes in an ``array('d')``) rather than records: a
  ``StepCost`` costs about 600 bytes to keep, and a day of chat traffic
  visits tens of thousands of ``(batch, context)`` keys, so records could
  be kept only in an LRU that evicts most of them before their reuse.
  The results are the direct functions' bytes, because the arithmetic is
  the same: the roofline uses only ``+ - * / min max``, which round alike
  on floats and arrays, and a row's watts come from the scalar power
  model (``**``, never ``np.power``) applied to each context's
  utilization.
* **vectorized sweeps** — :meth:`StepCostKernel.evaluate_grid` runs the
  whole :meth:`~repro.perf.estimator.InferenceEstimator.estimate` pipeline
  (capacity, waves, prefill, decode, power) over a batch x input x output
  grid, with the same expression over arrays.  Latency fields equal the
  scalar estimator's exactly.  Average power can differ in the last ulp,
  because ``np.power`` and ``**`` round differently (see
  :mod:`repro.core.xp`).

Kernels are cached per (hashable, frozen) :class:`Deployment` via
:func:`get_kernel`, so the engine, estimator, sweeps and the cluster
simulator's replicas all share one memo store.  Cached state is derived
purely from the frozen deployment, so there is no invalidation protocol: a
different deployment is a different cache key.

:class:`DirectStepCost` adapts the un-memoized ``phases.py`` functions
(:func:`~repro.perf.phases.prefill_cost`,
:func:`~repro.perf.phases.decode_step_cost`) to the same three accessors;
the equivalence tests use it as the reference.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.xp import ARRAYS, FLOATS
from repro.perf.phases import (
    Deployment,
    StepCoeffs,
    StepCost,
    decode_step_cost,
    phase_utilization,
    prefill_cost,
    step_model,
)

__all__ = [
    "DirectStepCost",
    "StepCostKernel",
    "SweepGrid",
    "clear_kernel_cache",
    "get_kernel",
]

# Bounded cache sizes.  Coefficient sets are a dozen floats and priced
# steps a breakdown plus three floats, so these bounds are generous; they
# exist to keep long-lived processes (sweep services, capacity planners
# probing many workloads) from growing without bound.
_COEFFS_CACHE_SIZE = 256
_STEP_CACHE_SIZE = 8192
_PREFILL_CACHE_SIZE = 4096
_KERNEL_CACHE_SIZE = 64
# Decode rows: a block holds 2**_ROW_SHIFT contexts of one batch size as
# (total_s, power_w) pairs, 4 KiB of floats (about 4.6 KiB with its key
# and header), so the bound keeps rows under 5 MiB; the busiest e2e
# workload touches 434 blocks.
_ROW_SHIFT = 8
_ROW_MASK = (1 << _ROW_SHIFT) - 1
_ROW_CACHE_SIZE = 1024


@dataclass(frozen=True)
class SweepGrid:
    """Vectorized sweep results over a batch x input x output grid.

    All arrays have shape ``(len(batch_sizes), len(input_tokens),
    len(output_tokens))`` except ``max_concurrency`` which is per-workload
    ``(len(input_tokens), len(output_tokens))``.  OOM lanes carry the
    estimator's sentinel values (TTFT 0, e2e/ITL inf, throughput 0) and
    NaN power.
    """

    batch_sizes: tuple[int, ...]
    input_tokens: tuple[int, ...]
    output_tokens: tuple[int, ...]
    ttft_s: np.ndarray
    itl_s: np.ndarray
    end_to_end_s: np.ndarray
    throughput_tokens_per_s: np.ndarray
    average_power_w: np.ndarray
    effective_concurrency: np.ndarray
    oom: np.ndarray
    max_concurrency: np.ndarray

    def index(self, batch_size: int, inp: int, out: int) -> tuple[int, int, int]:
        return (
            self.batch_sizes.index(batch_size),
            self.input_tokens.index(inp),
            self.output_tokens.index(out),
        )

    def point(self, batch_size: int, inp: int, out: int) -> dict[str, float]:
        """One lane's metrics as plain floats."""
        b, i, o = self.index(batch_size, inp, out)
        return {
            "ttft_s": float(self.ttft_s[b, i, o]),
            "itl_s": float(self.itl_s[b, i, o]),
            "end_to_end_s": float(self.end_to_end_s[b, i, o]),
            "throughput_tokens_per_s": float(
                self.throughput_tokens_per_s[b, i, o]
            ),
            "average_power_w": float(self.average_power_w[b, i, o]),
            "oom": bool(self.oom[b, i, o]),
        }


class _GridParts(NamedTuple):
    """A breakdown over a sweep grid:
    :class:`~repro.core.metrics.LatencyBreakdown`'s fields as arrays (or
    floats where a bucket is constant)."""

    compute_s: np.ndarray
    weight_memory_s: np.ndarray
    kv_memory_s: np.ndarray
    activation_memory_s: np.ndarray
    communication_s: np.ndarray
    overhead_s: np.ndarray
    total_s: np.ndarray


class DirectStepCost:
    """Un-memoized pass-through to the ``phases.py`` step functions.

    Same scalar accessors as :class:`StepCostKernel`,
    so engines, estimators and cluster replicas can be pointed at the
    direct path (benchmark baselines, equivalence tests) without branching.
    """

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment

    def prefill_cost(self, batch_size: int, input_tokens: int) -> StepCost:
        return prefill_cost(self.deployment, batch_size, input_tokens)

    def decode_cost(self, batch_size: int, context_length: int) -> StepCost:
        return decode_step_cost(self.deployment, batch_size, context_length)

    def decode_step(self, batch_size: int, context_length: int) -> tuple[float, float]:
        cost = decode_step_cost(self.deployment, batch_size, context_length)
        return cost.breakdown.total_s, cost.power_w


class _LruDict(OrderedDict):
    """Tiny bounded LRU used for every kernel-internal memo table.

    A hit is ``get`` plus ``move_to_end``, written inline at each lookup
    (one Python call fewer per priced step); :meth:`store` evicts the
    least recently used entries past ``max_size``.
    """

    def __init__(self, max_size: int) -> None:
        super().__init__()
        self.max_size = max_size

    def store(self, key, value):  # noqa: ANN001
        self[key] = value
        while len(self) > self.max_size:
            self.popitem(last=False)
        return value


class StepCostKernel:
    """Memoized, vectorizable step-cost evaluator for one deployment."""

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment
        self._model = step_model(deployment)
        self._coeffs: _LruDict = _LruDict(_COEFFS_CACHE_SIZE)
        self._decode_memo: _LruDict = _LruDict(_STEP_CACHE_SIZE)
        self._prefill_memo: _LruDict = _LruDict(_PREFILL_CACHE_SIZE)
        # KV-off coefficients depend on the context and would reach
        # ``xp.power`` over arrays, so those deployments keep no rows.
        self._decode_rows: _LruDict | None = (
            _LruDict(_ROW_CACHE_SIZE) if deployment.kv_spec.enabled else None
        )

    # ------------------------------------------------------------------
    # Scalar steps
    # ------------------------------------------------------------------

    def decode_coeffs(self, batch_size: int) -> StepCoeffs:
        """KV-cached decode coefficients for one batch size (bounded LRU)."""
        memo = self._coeffs
        cached = memo.get(batch_size)
        if cached is not None:
            memo.move_to_end(batch_size)
            return cached
        return self._coeffs.store(
            batch_size, self._model.decode_coeffs(FLOATS, batch_size)
        )

    def decode_cost(self, batch_size: int, context_length: int) -> StepCost:
        """One decode iteration, priced (memoized)."""
        key = (batch_size, context_length)
        memo = self._decode_memo
        cost = memo.get(key)
        if cost is not None:
            memo.move_to_end(key)
            return cost
        model = self._model
        if not self.deployment.kv_spec.enabled:
            # Recompute regime: the step re-prefills the whole context, so
            # its coefficients depend on ctx and are built per call.
            cost = model.price(*model.decode_point(FLOATS, batch_size, context_length))
        else:
            if batch_size < 1 or context_length < 1:
                raise ValueError("batch_size and context_length must be >= 1")
            cost = model.price(self.decode_coeffs(batch_size), context_length)
        return self._decode_memo.store(key, cost)

    def decode_step(self, batch_size: int, context_length: int) -> tuple[float, float]:
        """One decode iteration's ``(total_s, power_w)``, read from its
        decode row (equal to :meth:`decode_cost`'s two fields)."""
        rows = self._decode_rows
        if rows is None:
            cost = self.decode_cost(batch_size, context_length)
            return cost.breakdown.total_s, cost.power_w
        if batch_size < 1 or context_length < 1:
            raise ValueError("batch_size and context_length must be >= 1")
        key = (batch_size, context_length >> _ROW_SHIFT)
        block = rows.get(key)
        if block is None:
            block = rows.store(key, self._decode_block(*key))
        else:
            rows.move_to_end(key)
        i = (context_length & _ROW_MASK) << 1
        return block[i], block[i + 1]

    def _decode_block(self, batch_size: int, index: int) -> array:
        """Block ``index`` of a batch size's decode row: the roofline over
        its 256 contexts in one array pass, watts per context from the
        scalar power model.  (Slot 0 of block 0, context 0, is priced but
        never read.)"""
        model = self._model
        first = index << _ROW_SHIFT
        ctx = np.arange(first, first + _ROW_MASK + 1, dtype=float)
        parts, _, _ = model.cost(ARRAYS, self.decode_coeffs(batch_size), ctx)
        breakdown = _GridParts(*parts)
        util = phase_utilization(
            breakdown, self.deployment.framework.power_intensity, ARRAYS
        )
        block = np.empty(2 * ctx.size)
        block[0::2] = breakdown.total_s
        block[1::2] = list(map(model.power_model.group_power_w, util.tolist()))
        return array("d", block.tobytes())

    def prefill_cost(self, batch_size: int, input_tokens: int) -> StepCost:
        """One prefill pass, priced (memoized)."""
        key = (batch_size, input_tokens)
        memo = self._prefill_memo
        cost = memo.get(key)
        if cost is not None:
            memo.move_to_end(key)
            return cost
        # Prefill cost is quadratic in the prompt length (causal attention)
        # and its GEMM rows scale with ``batch * input``, so its coefficients
        # are built per call; the memo still collapses the engine's
        # chunked-prefill loops and repeated admissions.
        model = self._model
        cost = model.price(*model.prefill_point(FLOATS, batch_size, input_tokens))
        return self._prefill_memo.store(key, cost)

    # ------------------------------------------------------------------
    # Vectorized sweep grid
    # ------------------------------------------------------------------

    def evaluate_grid(
        self,
        batch_sizes,
        input_tokens,
        output_tokens,
    ) -> SweepGrid:
        """Evaluate the whole batch x input x output grid in one pass.

        Replays :meth:`InferenceEstimator.estimate` (capacity check,
        concurrency waves, prefill + decode rooflines, power integration)
        with the step model over arrays.  Every latency field equals the
        scalar estimator's; average power equals the scalar formula
        evaluated with ``np.power`` (tests enforce both with ``==``).
        """
        batch_sizes = tuple(int(b) for b in batch_sizes)
        input_tokens = tuple(int(i) for i in input_tokens)
        output_tokens = tuple(int(o) for o in output_tokens)
        if not batch_sizes or not input_tokens or not output_tokens:
            raise ValueError("evaluate_grid needs non-empty axes")
        if min(batch_sizes) < 1 or min(input_tokens) < 1 or min(output_tokens) < 1:
            raise ValueError("batch sizes and token counts must be >= 1")

        dep = self.deployment
        model = self._model

        nb, ni, no = len(batch_sizes), len(input_tokens), len(output_tokens)
        B = np.asarray(batch_sizes, dtype=float).reshape(nb, 1, 1)
        inp = np.asarray(input_tokens, dtype=float).reshape(1, ni, 1)
        out = np.asarray(output_tokens, dtype=float).reshape(1, 1, no)

        # --- capacity: the deployment's model, per (input, output) -------
        capacity = dep.capacity
        cmax = np.array(
            [[capacity.max_concurrency(i + o) for o in output_tokens]
             for i in input_tokens],
            dtype=float,
        )

        # Weights that do not fit leave no KV budget, so C_max < 1 covers
        # them too.
        oom = np.broadcast_to(cmax < 1.0, (nb, ni, no)).copy()

        cmax3 = np.maximum(np.broadcast_to(cmax, (nb, ni, no)), 1.0)
        fits = B <= cmax3
        if dep.framework.continuous_batching:
            effective = np.where(fits, B, cmax3)
            waves = np.where(fits, 1.0, B / effective)
        else:
            oom |= np.broadcast_to(~fits, (nb, ni, no))
            effective = np.where(fits, B, 1.0)
            waves = np.ones_like(effective)
        # Dummy-but-valid value on masked lanes keeps the math finite.
        effective = np.where(oom, 1.0, effective)

        # --- prefill and decode: the step model over arrays -------------
        shape = (nb, ni, no)
        parts, _, _ = model.cost(ARRAYS, *model.prefill_point(ARRAYS, effective, inp))
        prefill = _GridParts(*parts)
        ctx = np.broadcast_to(np.maximum(1.0, np.round(inp + (out + 1.0) / 2.0)), shape)
        parts, _, _ = model.cost(ARRAYS, *model.decode_point(ARRAYS, effective, ctx))
        steps = np.broadcast_to(out - 1.0, shape)
        decode = _GridParts(*(part * steps for part in parts))

        # --- metrics ---------------------------------------------------
        ttft = np.broadcast_to(prefill.total_s, shape).copy()
        e2e = (prefill.total_s + decode.total_s) * waves
        with np.errstate(divide="ignore", invalid="ignore"):
            itl = np.where(
                out > 1.0,
                (e2e - ttft) / (B * (out - 1.0)),
                0.0,
            )
        tput = B * (inp + out) / e2e
        power = model.average_power_w(ARRAYS, prefill, decode)

        # --- OOM sentinels (match InferenceMetrics.out_of_memory) ------
        ttft[oom] = 0.0
        e2e = np.where(oom, np.inf, e2e)
        itl = np.where(oom, np.inf, itl)
        tput = np.where(oom, 0.0, tput)
        power = np.where(oom, np.nan, power)
        effective_out = np.where(oom, 0.0, effective)

        return SweepGrid(
            batch_sizes=batch_sizes,
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            ttft_s=ttft,
            itl_s=itl,
            end_to_end_s=e2e,
            throughput_tokens_per_s=tput,
            average_power_w=power,
            effective_concurrency=effective_out,
            oom=oom,
            max_concurrency=cmax.astype(int),
        )


# ----------------------------------------------------------------------
# Kernel registry: one kernel per frozen deployment, shared process-wide.
# ----------------------------------------------------------------------

_KERNEL_CACHE: OrderedDict[Deployment, StepCostKernel] = OrderedDict()


def get_kernel(deployment: Deployment) -> StepCostKernel:
    """Process-wide kernel for a deployment (bounded keyed cache).

    ``Deployment`` is frozen and hashable, so the key captures everything
    the coefficients depend on; equal deployments share one kernel — and
    thereby one coefficient/memo store — across engines, estimators,
    sweeps and cluster replicas.
    """
    kernel = _KERNEL_CACHE.get(deployment)
    if kernel is None:
        kernel = StepCostKernel(deployment)
        _KERNEL_CACHE[deployment] = kernel
    else:
        _KERNEL_CACHE.move_to_end(deployment)
    while len(_KERNEL_CACHE) > _KERNEL_CACHE_SIZE:
        _KERNEL_CACHE.popitem(last=False)
    return kernel


def clear_kernel_cache() -> None:
    """Drop every cached kernel (tests, long-lived processes)."""
    _KERNEL_CACHE.clear()
