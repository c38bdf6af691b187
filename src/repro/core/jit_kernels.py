"""Optional numba-compiled kernel tier for the sampling hot loops.

The library ships two kernel tiers:

* ``"numpy"`` — the always-available reference tier: vectorised numpy
  batch kernels (:mod:`repro.core.keys`, :class:`repro.core.store.MergeStore`).
  This tier has no optional dependencies and is what every correctness
  test and statistical suite runs against.
* ``"jit"`` — this module: the same kernels compiled with
  `numba <https://numba.pydata.org>`_ (an *optional* dependency, gated at
  import exactly like the planned ``mpi4py`` backend).  The compiled tier
  replaces the interpreter-level pieces of the hot path — the per-jump
  Python loop of the exponential/geometric jump traversal and the
  ``np.insert``-based merge of the sorted-array store — with fused,
  allocation-light compiled loops.

``"auto"`` resolves to ``"jit"`` when numba is importable and silently
falls back to ``"numpy"`` otherwise; requesting ``"jit"`` without numba
raises an actionable error instead (see :func:`resolve_kernel_tier`).

Byte-identical samples across tiers
-----------------------------------
Tier selection must never change a sample, only its cost.  Three design
rules make the compiled kernels bit-identical to the numpy reference (the
store/sim/process equivalence suites enforce this):

* **Same random stream.**  The compiled jump loops draw from the *same*
  ``np.random.Generator`` objects as the numpy tier, one scalar
  ``rng.random()`` per draw in the same order (numba's ``Generator``
  support consumes the underlying bit generator exactly like numpy).
* **Scalar libm math.**  The jump loops use scalar ``math.log`` /
  ``math.exp`` in both tiers, which resolve to the same C library on the
  same machine.  *Dense* batch key generation
  (:func:`repro.core.keys.exponential_keys`) intentionally stays on the
  numpy tier in both modes: numpy's vectorised transcendentals are not
  guaranteed bit-identical to scalar libm, and the dense path is already
  compiled vectorised code — the jit tier's win is the scalar-bottlenecked
  jump and merge loops, not the ufuncs.
* **Same float summation order.**  The weighted jump scan accumulates the
  cumulative weights left to right, matching ``np.cumsum`` exactly, and
  the store merge is a pure comparison/move pass with no arithmetic.
"""

from __future__ import annotations

import logging
import math
from typing import Optional, Tuple

import numpy as np

_logger = logging.getLogger("repro.core.jit")

__all__ = [
    "KERNEL_TIERS",
    "NUMBA_AVAILABLE",
    "normalize_kernel_tier",
    "resolve_kernel_tier",
    "numba_available",
    "require_numba",
    "weighted_jump_positions_jit",
    "uniform_jump_positions_jit",
    "jump_positions",
    "merge_sorted_jit",
    "take_ranks_jit",
]

# -- gated optional import (the mpi4py-backend pattern) ----------------------
try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
    NUMBA_IMPORT_ERROR: Optional[str] = None
except ImportError as _exc:  # numba genuinely optional
    _njit = None
    NUMBA_AVAILABLE = False
    NUMBA_IMPORT_ERROR = str(_exc)

#: valid values of the ``kernel_tier=`` argument across the API surface
KERNEL_TIERS = ("numpy", "jit", "auto")

_TINY = float(np.finfo(np.float64).tiny)


def numba_available() -> bool:
    """Whether the optional numba dependency imported successfully."""
    return NUMBA_AVAILABLE


def require_numba(feature: str = "kernel_tier='jit'") -> None:
    """Raise an actionable error when the compiled tier is requested without numba."""
    if not NUMBA_AVAILABLE:
        raise RuntimeError(
            f"{feature} requires the optional dependency numba, which is not "
            f"installed (import failed with: {NUMBA_IMPORT_ERROR}). Install it "
            f"with `pip install numba` (or `pip install "
            f"repro-reservoir-sampling[jit]`), or use kernel_tier='auto' to "
            f"fall back to the numpy reference tier automatically."
        )


def normalize_kernel_tier(tier: str) -> str:
    """Validate a ``kernel_tier=`` value (``"numpy"``, ``"jit"`` or ``"auto"``)."""
    key = str(tier).strip().lower()
    if key not in KERNEL_TIERS:
        raise ValueError(f"unknown kernel_tier {tier!r}; use one of {list(KERNEL_TIERS)}")
    return key


def resolve_kernel_tier(tier: str) -> str:
    """Resolve a requested tier to the concrete one that will run.

    ``"auto"`` picks ``"jit"`` when numba is importable and falls back to
    ``"numpy"`` otherwise (logged at debug level on the
    ``repro.core.jit`` logger).  ``"jit"`` without numba raises a
    :class:`RuntimeError` that names the missing dependency and how to get
    it — samplers resolve the tier at construction time, *before* any
    worker processes are spawned, so the error can never leak workers.
    """
    key = normalize_kernel_tier(tier)
    if key == "auto":
        if NUMBA_AVAILABLE:
            return "jit"
        _logger.debug(
            "kernel_tier='auto' falling back to 'numpy': numba import failed (%s)",
            NUMBA_IMPORT_ERROR,
        )
        return "numpy"
    if key == "jit":
        require_numba()
    return key


# ---------------------------------------------------------------------------
# compiled kernels (defined only when numba imported; the public wrappers
# below raise the actionable error otherwise)
# ---------------------------------------------------------------------------
if NUMBA_AVAILABLE:  # pragma: no cover - compiled paths need numba

    @_njit(cache=True)
    def _weighted_jump_scan(weights, threshold, rng, out_idx, out_keys):
        """Fused exponential-jumps scan of one batch under a fixed threshold.

        Bit-identical replay of
        :func:`repro.core.keys.weighted_jump_positions`: the cumulative
        weights are accumulated left to right (= ``np.cumsum``), the
        ``searchsorted(..., side="left")`` is replayed as a resumable
        linear scan (the scan frontier is *not* advanced past an accepted
        item, so a zero-length skip re-accepts the same item exactly like
        a from-scratch binary search would), and every ``1 - rng.random()``
        draw happens in the same order.
        """
        n = weights.shape[0]
        total = 0.0
        for i in range(n):
            total += weights[i]
        count = 0
        consumed = 0.0
        j = 0
        prefix = 0.0  # cumulative weight of items [0, j)
        while True:
            skip = -math.log(1.0 - rng.random()) / threshold
            target = consumed + skip
            if target > total or math.isinf(target) or math.isnan(target):
                break
            while j < n and prefix + weights[j] < target:
                prefix += weights[j]
                j += 1
            if j >= n:
                break
            w = weights[j]
            lower = math.exp(-threshold * w)
            u = lower + (1.0 - rng.random()) * (1.0 - lower)
            if u < _TINY:
                u = _TINY
            out_idx[count] = j
            out_keys[count] = -math.log(u) / w
            count += 1
            consumed = prefix + w  # == cumulative[j]
            if j == n - 1:
                break
        return count

    @_njit(cache=True)
    def _uniform_jump_scan(n, threshold, rng, out_idx, out_keys):
        """Geometric-jumps scan; replays
        :func:`repro.core.keys.uniform_jump_positions` draw for draw."""
        count = 0
        position = -1
        log1mt = math.log(1.0 - threshold) if threshold < 1.0 else 0.0
        while True:
            if threshold >= 1.0:
                skip = 0
            else:
                skip = int(math.floor(math.log(1.0 - rng.random()) / log1mt))
            position += skip + 1
            if position >= n:
                break
            out_idx[count] = position
            out_keys[count] = (1.0 - rng.random()) * threshold
            count += 1
        return count

    @_njit(cache=True)
    def _merge_sorted(old_keys, old_ids, new_keys, new_ids):
        """One-pass two-pointer merge of two sorted (key, id) arrays.

        Equal keys keep existing entries first (the ``side="right"``
        convention of :class:`repro.core.store.MergeStore`); among equal
        *new* keys the incoming (stable-sorted) order is preserved.  Pure
        comparisons and moves — no arithmetic — so the result is
        bit-identical to the numpy ``searchsorted`` + ``np.insert`` path.
        """
        n = old_keys.shape[0]
        m = new_keys.shape[0]
        out_keys = np.empty(n + m, dtype=np.float64)
        out_ids = np.empty(n + m, dtype=np.int64)
        i = 0
        j = 0
        k = 0
        while i < n and j < m:
            if old_keys[i] <= new_keys[j]:
                out_keys[k] = old_keys[i]
                out_ids[k] = old_ids[i]
                i += 1
            else:
                out_keys[k] = new_keys[j]
                out_ids[k] = new_ids[j]
                j += 1
            k += 1
        while i < n:
            out_keys[k] = old_keys[i]
            out_ids[k] = old_ids[i]
            i += 1
            k += 1
        while j < m:
            out_keys[k] = new_keys[j]
            out_ids[k] = new_ids[j]
            j += 1
            k += 1
        return out_keys, out_ids

    @_njit(cache=True)
    def _take_ranks(keys, ranks):
        """Gather the 1-based ``ranks``-th smallest keys (compiled select)."""
        out = np.empty(ranks.shape[0], dtype=np.float64)
        for i in range(ranks.shape[0]):
            out[i] = keys[ranks[i] - 1]
        return out


# ---------------------------------------------------------------------------
# public wrappers (mirror the signatures of repro.core.keys)
# ---------------------------------------------------------------------------
def weighted_jump_positions_jit(
    weights: np.ndarray, threshold: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Compiled :func:`repro.core.keys.weighted_jump_positions` (same stream)."""
    require_numba("weighted_jump_positions_jit")
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    n = weights.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    out_idx = np.empty(n, dtype=np.int64)
    out_keys = np.empty(n, dtype=np.float64)
    count = _weighted_jump_scan(weights, float(threshold), rng, out_idx, out_keys)
    return out_idx[:count].copy(), out_keys[:count].copy()


def uniform_jump_positions_jit(
    count: int, threshold: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Compiled :func:`repro.core.keys.uniform_jump_positions` (same stream)."""
    require_numba("uniform_jump_positions_jit")
    n = int(count)
    if n <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    out_idx = np.empty(n, dtype=np.int64)
    out_keys = np.empty(n, dtype=np.float64)
    accepted = _uniform_jump_scan(n, float(threshold), rng, out_idx, out_keys)
    return out_idx[:accepted].copy(), out_keys[:accepted].copy()


def jump_positions(
    threshold: float,
    rng: np.random.Generator,
    *,
    weighted: bool,
    tier: str,
    weights: Optional[np.ndarray] = None,
    count: int = 0,
    weight_sum: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Tier dispatcher for the below-threshold jump traversal.

    The single entry point the PE kernels use for steady-state ingestion:
    ``tier`` must already be resolved (``"numpy"`` or ``"jit"``).  Weighted
    calls pass the batch ``weights`` (and, when known, ``weight_sum =
    weights.sum()`` for the numpy tier's clearance check); uniform calls
    pass the item ``count``.  Both tiers consume the random stream
    identically, so the returned ``(indices, keys)`` are byte-identical.
    """
    from repro.core import keys as keymod

    if weighted:
        if weights is None:
            raise ValueError("weighted jump traversal requires the batch weights")
        if tier == "jit":
            keymod.check_jump_arguments(weights, threshold)
            return weighted_jump_positions_jit(weights, threshold, rng)
        return keymod.weighted_jump_positions(weights, threshold, rng, weight_sum=weight_sum)
    if tier == "jit":
        keymod.check_uniform_jump_arguments(count, threshold)
        return uniform_jump_positions_jit(count, threshold, rng)
    return keymod.uniform_jump_positions(count, threshold, rng)


def merge_sorted_jit(
    old_keys: np.ndarray, old_ids: np.ndarray, new_keys: np.ndarray, new_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Compiled merge of a sorted store with a stable-sorted batch."""
    require_numba("merge_sorted_jit")
    return _merge_sorted(old_keys, old_ids, new_keys, new_ids)


def take_ranks_jit(keys: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Compiled 1-based rank gather (``kth_keys`` hot loop)."""
    require_numba("take_ranks_jit")
    return _take_ranks(keys, np.asarray(ranks, dtype=np.int64))
