"""Random keys and skip values for reservoir sampling (paper Sections 3.1, 4.1, 4.3).

Sampling by sorting random variates
-----------------------------------
A weighted sample without replacement of size ``k`` is obtained by giving
every item ``i`` an exponential key ``v_i = -ln(rand()) / w_i`` and keeping
the ``k`` items with the *smallest* keys (the "exponential clocks" method,
numerically more stable than the classic ``rand()**(1/w_i)`` formulation).
For uniform sampling the key is simply ``rand()`` itself.

Skip values ("exponential jumps")
---------------------------------
Given the current threshold ``T`` (the largest key in the reservoir), the
amount of *weight* to skip before the next item enters the reservoir is an
exponential deviate with rate ``T``: ``X = -ln(rand()) / T``.  The key of
the item ``j`` that exhausts the skip is drawn from the part of its key
distribution below ``T``: ``v_j = -ln(rand(e^{-T w_j}, 1)) / w_j``.

For uniform sampling the number of *items* to skip is geometric with
success probability ``T`` and the accepted item's key is ``rand() * T``.

This module provides dense key generators (used by the sequential and
decayed samplers and the reference samplers) and vectorised jump kernels
(used by the distributed sampler, whose threshold is fixed for a whole
mini-batch).  The jump kernel walks the cumulative weights with
``searchsorted``, which is exactly the exponential-jumps traversal —
including the Section-5 optimisation of skipping whole blocks of items at
once — expressed as array operations.

Once ``n >> k`` most batches hold no insertion at all: the first skip
already exceeds the batch's total weight.  The kernel therefore draws the
first skip before building the prefix sum and compares it with
:func:`jump_clearance_bound`, an upper bound on the left-to-right total
derived from the cheap pairwise ``weights.sum()``.  A skip that clears the
bound ends the traversal with one ``sum`` instead of a ``cumsum``; the
random draws and every decision are the same as with the eager prefix
sum.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import ensure_generator
from repro.utils.validation import check_positive, check_weights

__all__ = [
    "exponential_keys",
    "uniform_keys",
    "check_jump_arguments",
    "check_uniform_jump_arguments",
    "jump_clearance_bound",
    "weighted_jump_positions",
    "uniform_jump_positions",
    "dense_weighted_candidates",
    "dense_uniform_candidates",
]

_TINY = np.finfo(np.float64).tiny
_EPS = float(np.finfo(np.float64).eps)


def _rand_open(rng: np.random.Generator, size=None):
    """Uniform deviates from the half-open interval ``(0, 1]``.

    ``numpy`` draws from ``[0, 1)``; the reflection avoids taking
    ``log(0)``.
    """
    return 1.0 - rng.random(size)


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------
def exponential_keys(weights: np.ndarray, rng=None) -> np.ndarray:
    """Exponential keys ``-ln(U)/w`` for an array of weights."""
    weights = check_weights(weights)
    rng = ensure_generator(rng)
    if weights.size == 0:
        return np.empty(0, dtype=np.float64)
    return -np.log(_rand_open(rng, weights.shape[0])) / weights


def uniform_keys(count: int, rng=None) -> np.ndarray:
    """Uniform keys in ``(0, 1]`` for uniform (unweighted) sampling."""
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = ensure_generator(rng)
    return _rand_open(rng, count)


# ---------------------------------------------------------------------------
# vectorised batch kernels (mini-batch processing with a fixed threshold)
# ---------------------------------------------------------------------------
def check_jump_arguments(weights: np.ndarray, threshold: float) -> np.ndarray:
    """Validate (weights, threshold) of a weighted jump traversal.

    Shared by the numpy reference kernel and the compiled tier
    (:mod:`repro.core.jit_kernels`), so both reject bad input identically.
    Returns the validated weights array.
    """
    weights = check_weights(weights)
    check_positive(threshold, "threshold")
    return weights


def check_uniform_jump_arguments(count: int, threshold: float) -> int:
    """Validate (count, threshold) of a uniform (geometric) jump traversal."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"uniform threshold must lie in (0, 1], got {threshold}")
    return int(count)


def jump_clearance_bound(weight_sum: float, n: int) -> float:
    """Upper bound on ``np.cumsum(w)[-1]`` from ``weight_sum = w.sum()``.

    For ``n`` positive weights with exact sum ``S``, every summation
    order made of ``n - 1`` additions lands within a relative
    ``gamma = (n-1)u / (1 - (n-1)u)`` of ``S`` (``u = eps/2``).  That holds
    for numpy's pairwise ``sum`` ``s`` and for the left-to-right ``cumsum``
    total ``c`` alike, so
    ``c <= s (1+gamma)/(1-gamma) = s / (1 - (n-1) eps) <= s (1 + 2(n-1) eps)``
    while ``(n-1) eps <= 1/2``.  The margin ``4 n eps`` leaves more than
    ``2 eps`` of slack for the two roundings of the product below.  An
    overflowing sum gives ``inf``, which no skip clears.
    """
    return weight_sum * (1.0 + 4.0 * n * _EPS)


def weighted_jump_positions(
    weights: np.ndarray, threshold: float, rng=None, *, weight_sum: Optional[float] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Exponential-jumps traversal of a batch under a fixed threshold.

    Returns ``(indices, keys)``: the positions (in batch order) of the items
    whose keys fall below ``threshold`` and the keys assigned to them.  The
    expected number of returned items is small once many items have been
    seen, so the per-jump ``searchsorted`` on the cumulative weights keeps
    the whole batch scan at ``O(b)`` vectorised work plus
    ``O(#insertions * log b)``.

    The first skip is drawn before the prefix sum: when it exceeds
    :func:`jump_clearance_bound` of the batch, no item is accepted and
    the ``cumsum`` is never built.  ``weight_sum`` is the batch's
    ``weights.sum()`` when the caller has already computed it (the PE
    insert kernel reports it as the batch weight).
    """
    weights = check_jump_arguments(weights, threshold)
    rng = ensure_generator(rng)
    n = weights.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if weight_sum is None:
        weight_sum = float(weights.sum())
    skip = -math.log(_rand_open(rng)) / threshold
    if skip > jump_clearance_bound(weight_sum, n):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    cumulative = np.cumsum(weights)
    total = float(cumulative[-1])
    indices = []
    keys = []
    consumed = 0.0
    while True:
        target = consumed + skip
        if target > total or not np.isfinite(target):
            break
        j = int(np.searchsorted(cumulative, target, side="left"))
        if j >= n:  # numerical edge when target == total
            break
        w = float(weights[j])
        lower = math.exp(-threshold * w)
        u = lower + _rand_open(rng) * (1.0 - lower)
        u = max(u, _TINY)
        keys.append(-math.log(u) / w)
        indices.append(j)
        consumed = float(cumulative[j])
        if j == n - 1:
            break
        skip = -math.log(_rand_open(rng)) / threshold
    return np.asarray(indices, dtype=np.int64), np.asarray(keys, dtype=np.float64)


def uniform_jump_positions(
    count: int, threshold: float, rng=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Geometric-jumps traversal of ``count`` uniform items under threshold ``T``.

    Returns ``(indices, keys)`` of the accepted items.  Skipping items is a
    constant-time operation per accepted item, which is why the uniform
    sampler's local time does not depend on the batch size (Corollary 4).
    """
    count = check_uniform_jump_arguments(count, threshold)
    rng = ensure_generator(rng)
    indices = []
    keys = []
    position = -1
    log1mt = math.log(1.0 - threshold) if threshold < 1.0 else None
    while True:
        if log1mt is None:
            skip = 0
        else:
            skip = int(math.floor(math.log(_rand_open(rng)) / log1mt))
        position += skip + 1
        if position >= count:
            break
        indices.append(position)
        keys.append(_rand_open(rng) * threshold)
    return np.asarray(indices, dtype=np.int64), np.asarray(keys, dtype=np.float64)


# ---------------------------------------------------------------------------
# dense kernels (reference implementations / first batch)
# ---------------------------------------------------------------------------
def dense_weighted_candidates(
    weights: np.ndarray, threshold: float, rng=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a key for *every* item and keep those below ``threshold``.

    Statistically equivalent to :func:`weighted_jump_positions`; used as the
    reference kernel in tests and when a threshold is not yet known
    (``threshold = inf`` keeps every item).
    """
    weights = check_weights(weights)
    rng = ensure_generator(rng)
    keys = exponential_keys(weights, rng)
    if math.isinf(threshold):
        return np.arange(weights.shape[0], dtype=np.int64), keys
    mask = keys < threshold
    return np.flatnonzero(mask).astype(np.int64), keys[mask]


def dense_uniform_candidates(
    count: int, threshold: float, rng=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform-key analogue of :func:`dense_weighted_candidates`."""
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = ensure_generator(rng)
    keys = uniform_keys(count, rng)
    if math.isinf(threshold) or threshold >= 1.0:
        return np.arange(count, dtype=np.int64), keys
    mask = keys < threshold
    return np.flatnonzero(mask).astype(np.int64), keys[mask]
