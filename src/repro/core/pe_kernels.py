"""Per-PE kernel functions shared by the execution backends.

These module-level functions are the *local work* of the distributed
samplers: key generation, exponential-jump batch ingestion, rank/select
queries, pruning, pivot proposals.  They operate on a **PE state** — a
plain dict holding the PE's local reservoir, its random generator and
(optionally) its stream shard — created by :func:`make_pe_state` through
:meth:`repro.network.base.Communicator.create_pe_state`.

Both backends execute the *same* functions against states seeded the same
way: :class:`~repro.network.communicator.SimComm` runs them inline in the
driver process, :class:`~repro.network.process_comm.ProcessComm` pickles
them (by reference — everything here is module-level) to its worker
processes.  This is what guarantees byte-identical samples across
backends.

The hot kernels additionally dispatch on the state's **kernel tier**
(``state["kernel_tier"]``, resolved to ``"numpy"`` or ``"jit"`` at sampler
construction): the ``"jit"`` tier runs the numba-compiled jump/merge loops
of :mod:`repro.core.jit_kernels`, which consume the per-PE random streams
identically to the numpy reference — so samples are byte-identical across
tiers as well, not just across backends.

Every kernel takes the state dict as its first argument and only
picklable values otherwise, and returns only picklable values.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import jit_kernels
from repro.core import keys as keymod
from repro.core.local_reservoir import LocalReservoir, LocalThresholdPolicy
from repro.obs.tracer import NULL_TRACER
from repro.stream.shard import StreamShardSpec, WorkerStreamShard

__all__ = [
    "make_pe_state",
    "make_centralized_state",
    "make_window_pe_state",
    "install_stream_kernel",
    "set_batch_size_kernel",
    "prefetch_stream_kernel",
    "insert_batch_kernel",
    "stream_insert_kernel",
    "prepare_batch_kernel",
    "ingest_prepared_kernel",
    "window_prepare_kernel",
    "window_ingest_prepared_kernel",
    "local_size_kernel",
    "max_key_kernel",
    "prune_kernel",
    "items_kernel",
    "item_ids_kernel",
    "keys_array_kernel",
    "preload_kernel",
    "count_le_kernel",
    "count_less_kernel",
    "kth_key_kernel",
    "kth_keys_kernel",
    "range_keys_kernel",
    "window_counts_kernel",
    "propose_pivots_kernel",
    "propose_window_positions",
    "window_insert_kernel",
    "window_evict_kernel",
    "window_sample_ids_kernel",
    "window_sample_items_kernel",
    "centralized_candidates_kernel",
    "centralized_stream_candidates_kernel",
    "export_pe_state_kernel",
    "import_pe_state_kernel",
]


# ---------------------------------------------------------------------------
# state factories
# ---------------------------------------------------------------------------
def make_pe_state(
    pe: int,
    seed_seq: np.random.SeedSequence,
    *,
    k: int,
    store: str = "merge",
    order: int = 16,
    kernel_tier: str = "numpy",
) -> Dict[str, object]:
    """PE state of the distributed sampler: local reservoir + random stream.

    ``seed_seq`` must come from ``spawn_seed_sequences(seed, p)[pe]`` so the
    per-PE random streams are identical across backends.

    ``"gen_rng"`` is a second generator spawned from the same sequence: the
    relaxed pipeline mode draws next-round keys from it in a background
    thread, so the draws neither race with nor reorder the main ``"rng"``
    stream that the selection pivot proposals consume.  (Spawning a child
    does not perturb the parent-derived ``"rng"`` stream.)

    ``kernel_tier`` arrives already resolved (``"numpy"`` or ``"jit"``) —
    the sampler resolves ``"auto"`` before any worker is created, so a
    missing numba can never fail inside a worker process.
    """
    tier = jit_kernels.resolve_kernel_tier(kernel_tier)
    return {
        "pe": int(pe),
        "rng": np.random.default_rng(seed_seq),
        "gen_rng": np.random.default_rng(seed_seq.spawn(1)[0]),
        "reservoir": LocalReservoir(backend=store, order=order, kernel_tier=tier),
        "k": int(k),
        "policy": LocalThresholdPolicy(int(k)),
        "kernel_tier": tier,
        "stream": None,
        "prepared": None,
        "tracer": NULL_TRACER,
    }


def make_centralized_state(
    pe: int, seed_seq: np.random.SeedSequence, *, kernel_tier: str = "numpy"
) -> Dict[str, object]:
    """PE state of the centralized baseline: only the random stream.

    The reservoir of the centralized algorithm lives at the root
    (coordinator side); the PEs only filter their local batches (under the
    resolved ``kernel_tier``'s jump kernels once a threshold exists).
    """
    return {
        "pe": int(pe),
        "rng": np.random.default_rng(seed_seq),
        "kernel_tier": jit_kernels.resolve_kernel_tier(kernel_tier),
        "stream": None,
        "tracer": NULL_TRACER,
    }


def make_window_pe_state(
    pe: int, seed_seq: np.random.SeedSequence, *, k: int, kernel_tier: str = "numpy"
) -> Dict[str, object]:
    """PE state of the distributed sliding-window sampler.

    The ``"reservoir"`` slot holds a
    :class:`~repro.window.buffer.SlidingWindowBuffer`, which answers the
    same rank/select queries as a :class:`LocalReservoir` — so the generic
    query and pivot-proposal kernels above (and through them the whole
    selection stack) operate on windowed state unchanged.

    Windowed ingestion always generates dense keys (no insertion threshold
    exists), which stay on numpy ufuncs in every tier; the resolved
    ``kernel_tier`` is recorded for the run metrics.
    """
    # Imported here, not at module top: repro.window itself imports this
    # module (for the distributed sampler), and the state factory only runs
    # at sampler construction time — long after both packages initialised.
    from repro.window.buffer import SlidingWindowBuffer

    return {
        "pe": int(pe),
        "rng": np.random.default_rng(seed_seq),
        "gen_rng": np.random.default_rng(seed_seq.spawn(1)[0]),
        "reservoir": SlidingWindowBuffer(int(k)),
        "k": int(k),
        "kernel_tier": jit_kernels.resolve_kernel_tier(kernel_tier),
        "stream": None,
        "prepared": None,
        "tracer": NULL_TRACER,
    }


def install_stream_kernel(state: Dict[str, object], spec: StreamShardSpec) -> None:
    """Attach a worker-local stream shard to the PE state."""
    state["stream"] = WorkerStreamShard(spec)


def set_batch_size_kernel(state: Dict[str, object], batch_size: int) -> int:
    """Resize the stream shard's per-round batch (variable shards only)."""
    stream = _require_stream(state)
    stream.set_batch_size(int(batch_size))
    return stream.batch_size


def prefetch_stream_kernel(state: Dict[str, object]) -> Tuple[int, float]:
    """Materialise the shard's next batch ahead of time.

    Safe to dispatch via ``run_per_pe_async``: only the shard is touched,
    so the prefetch can run in a background thread while the PE
    participates in selection collectives.  Returns ``(items, seconds)``
    — the batch length and the kernel's own busy time (the
    measured-overlap numerator of the strict pipeline mode).
    """
    start = time.perf_counter()
    with _beat_phase(state, "prepare"), _state_tracer(state).span("prepare", cat="kernel"):
        items = _require_stream(state).prefetch()
    return items, time.perf_counter() - start


def _require_stream(state: Dict[str, object]) -> WorkerStreamShard:
    stream: Optional[WorkerStreamShard] = state.get("stream")
    if stream is None:
        raise RuntimeError("no stream shard installed; call attach_worker_stream() first")
    return stream


def _state_tracer(state: Dict[str, object]):
    """The PE's tracer (the Null stub unless a trace collector installed one).

    States always carry the ``"tracer"`` slot, but snapshots exported
    before the obs layer existed may lack it — hence ``get``.
    """
    tracer = state.get("tracer")
    return tracer if tracer is not None else NULL_TRACER


#: the shared context of unmonitored kernels (nullcontext is reusable)
_NO_BEAT = contextlib.nullcontext()


def _beat_phase(state: Dict[str, object], phase: str, items: int = 0, *, bump_round: bool = False):
    """Bracket a kernel's phase work with heartbeats when monitoring is on.

    No-op (no beat channel in the state) unless a
    :class:`~repro.obs.health.HealthMonitor` installed one — so like the
    tracer stub this costs a dict lookup on unmonitored runs (and returns
    one shared context, building nothing) and never touches any random
    generator.  ``bump_round`` marks the once-per-round ingestion kernels,
    giving each rank its own live round counter.
    """
    beat = state.get("beat")
    if beat is None:
        return _NO_BEAT
    return _beats(beat, phase, items, bump_round)


@contextlib.contextmanager
def _beats(beat, phase: str, items: int, bump_round: bool):
    beat.begin(phase)
    try:
        yield
    finally:
        beat.end(phase, items=items, bump_round=bump_round)


# ---------------------------------------------------------------------------
# insert-phase kernels (distributed sampler)
# ---------------------------------------------------------------------------
def _generate_keys(batch_weights: np.ndarray, weighted: bool, rng: np.random.Generator) -> np.ndarray:
    if weighted:
        return keymod.exponential_keys(batch_weights, rng)
    return keymod.uniform_keys(batch_weights.shape[0], rng)


def _jump_positions(
    state: Dict[str, object],
    weights: np.ndarray,
    threshold: float,
    weighted: bool,
    rng: np.random.Generator,
    weight_sum: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Below-threshold jump traversal under the state's kernel tier.

    Single dispatch point of the steady-state hot path: the numpy reference
    kernels and the compiled tier consume ``rng`` identically, so the
    returned ``(indices, keys)`` do not depend on the tier.  ``weight_sum``
    is ``weights.sum()`` when the caller already has it.
    """
    return jit_kernels.jump_positions(
        threshold,
        rng,
        weighted=weighted,
        tier=str(state.get("kernel_tier", "numpy")),
        weights=weights if weighted else None,
        count=0 if weighted else weights.shape[0],
        weight_sum=weight_sum,
    )


def _insert_without_threshold(
    state: Dict[str, object],
    ids: np.ndarray,
    weights: np.ndarray,
    weighted: bool,
    local_thresholding: bool,
) -> Tuple[int, int]:
    """First-phase ingestion: no global threshold exists yet.

    Every item is a candidate and receives a key.  If the batch is large
    compared to ``k`` and local thresholding is enabled, the Section-5
    policy keeps the reservoir close to ``k`` items.  Returns
    ``(inserted, pruned)``.
    """
    reservoir: LocalReservoir = state["reservoir"]
    policy: LocalThresholdPolicy = state["policy"]
    rng: np.random.Generator = state["rng"]
    k = state["k"]
    b = ids.shape[0]
    inserted = 0
    pruned = 0
    use_policy = local_thresholding and policy.applies_to_batch(b + len(reservoir))
    if not use_policy:
        keys = _generate_keys(weights, weighted, rng)
        inserted = reservoir.insert_batch(keys, ids)
    else:
        chunk = max(policy.refresh_size - k, 64)
        local_threshold: Optional[float] = None
        if len(reservoir) >= k:
            local_threshold = reservoir.kth_key(k)
        for start in range(0, b, chunk):
            stop = min(start + chunk, b)
            keys = _generate_keys(weights[start:stop], weighted, rng)
            inserted += reservoir.insert_batch(keys, ids[start:stop], threshold=local_threshold)
            local_threshold, removed = policy.refresh_if_needed(reservoir)
            pruned += removed
    return inserted, pruned


def _insert_with_threshold(
    state: Dict[str, object],
    ids: np.ndarray,
    weights: np.ndarray,
    threshold: float,
    weighted: bool,
    weight_sum: float,
) -> Tuple[int, int]:
    """Steady-state ingestion under the fixed global threshold.

    The exponential/geometric jump traversal (per the state's kernel tier)
    skips whole runs of non-candidate items without generating their keys.
    """
    reservoir: LocalReservoir = state["reservoir"]
    rng: np.random.Generator = state["rng"]
    idx, keys = _jump_positions(state, weights, threshold, weighted, rng, weight_sum)
    inserted = reservoir.insert_batch(keys, ids[idx])
    return inserted, 0


def insert_batch_kernel(
    state: Dict[str, object],
    ids: np.ndarray,
    weights: np.ndarray,
    threshold: Optional[float],
    weighted: bool,
    local_thresholding: bool,
) -> Tuple[int, int, int, int, float]:
    """Ingest one mini-batch.

    Returns ``(inserted, pruned, reservoir_size, batch_items,
    batch_weight)``.  ``batch_weight`` is ``weights.sum()``, bit-equal to
    :attr:`~repro.stream.items.ItemBatch.total_weight`; the weighted jump
    traversal reuses it for its prefix-sum clearance check.
    """
    b = int(ids.shape[0])
    if b == 0:
        return 0, 0, len(state["reservoir"]), 0, 0.0
    with _beat_phase(state, "insert", b, bump_round=True), _state_tracer(state).span(
        "insert", cat="kernel", items=b
    ):
        batch_weight = float(weights.sum())
        if threshold is None:
            inserted, pruned = _insert_without_threshold(state, ids, weights, weighted, local_thresholding)
        else:
            inserted, pruned = _insert_with_threshold(
                state, ids, weights, threshold, weighted, batch_weight
            )
    return inserted, pruned, len(state["reservoir"]), b, batch_weight


def stream_insert_kernel(
    state: Dict[str, object],
    threshold: Optional[float],
    weighted: bool,
    local_thresholding: bool,
) -> Tuple[int, int, int, int, float]:
    """Generate the next batch from the worker-local stream shard and ingest it.

    Returns :func:`insert_batch_kernel`'s ``(inserted, pruned,
    reservoir_size, batch_items, batch_weight)``.
    """
    batch = _require_stream(state).next_batch()
    return insert_batch_kernel(
        state, batch.ids, batch.weights, threshold, weighted, local_thresholding
    )


# ---------------------------------------------------------------------------
# pipelined ingestion kernels (repro.pipeline)
# ---------------------------------------------------------------------------
def prepare_batch_kernel(
    state: Dict[str, object],
    threshold: Optional[float],
    weighted: bool,
) -> Tuple[int, int, float, float]:
    """Generate the next shard batch and its candidate keys ahead of time.

    The relaxed pipeline mode's prepare: candidates that survive the
    (possibly stale) ``threshold`` are parked in ``state["prepared"]`` for
    a later :func:`ingest_prepared_kernel`.  Keys come from the dedicated
    generation RNG and nothing else in the state is touched, so the kernel
    may run in a background thread (``run_per_pe_async``) while the PE
    participates in the current round's selection — the background draws
    can never race the pivot proposals on the main state RNG.  (The strict
    mode does not use this kernel: it prefetches only the raw batch via
    :func:`prefetch_stream_kernel` and keeps key generation inside
    :func:`stream_insert_kernel`, which is what makes it byte-identical.)

    With ``threshold=None`` every item receives a dense key (the
    first-batch local-thresholding policy does not apply here; the
    pipelined drivers run pre-threshold rounds through the lock-step path
    instead).  Returns ``(candidates, batch_items, batch_weight, seconds)``
    where ``seconds`` is the kernel's own busy time — the measured-overlap
    numerator.
    """
    start = time.perf_counter()
    with _beat_phase(state, "prepare"), _state_tracer(state).span("prepare", cat="kernel"):
        batch = _require_stream(state).next_batch()
        rng: np.random.Generator = state["gen_rng"]
        if threshold is None:
            keys = _generate_keys(batch.weights, weighted, rng)
            ids = batch.ids
        else:
            idx, keys = _jump_positions(state, batch.weights, threshold, weighted, rng)
            ids = batch.ids[idx]
    state["prepared"] = {
        "keys": keys,
        "ids": ids,
        "threshold": threshold,
        "batch_items": len(batch),
        "batch_weight": float(batch.total_weight),
    }
    return keys.shape[0], len(batch), float(batch.total_weight), time.perf_counter() - start


def ingest_prepared_kernel(
    state: Dict[str, object], threshold: Optional[float]
) -> Tuple[int, int, int]:
    """Insert the parked candidates, reconciling a stale prepare threshold.

    Candidates were filtered against the threshold in effect when
    :func:`prepare_batch_kernel` ran; if the global threshold has tightened
    since (relaxed mode: it is stale by one round), the extra candidates
    are pruned here before insertion — the *reconciliation prune*.  Because
    exponential/uniform keys conditioned below the stale threshold and
    re-truncated to the fresh one follow exactly the distribution of keys
    drawn below the fresh threshold, the surviving insertions match the
    lock-step run statistically.

    Returns ``(inserted, stale_extra, reservoir_size)``.
    """
    prepared = state.get("prepared")
    if prepared is None:
        raise RuntimeError("no prepared batch; dispatch prepare_batch_kernel first")
    state["prepared"] = None
    keys: np.ndarray = prepared["keys"]
    ids: np.ndarray = prepared["ids"]
    stale_extra = 0
    with _beat_phase(state, "insert", int(keys.shape[0]), bump_round=True), _state_tracer(
        state
    ).span("insert", cat="kernel", items=int(keys.shape[0])):
        stale = prepared["threshold"]
        if threshold is not None and (stale is None or stale > threshold):
            mask = keys <= threshold
            stale_extra = int(keys.shape[0] - int(mask.sum()))
            keys, ids = keys[mask], ids[mask]
        reservoir: LocalReservoir = state["reservoir"]
        inserted = reservoir.insert_batch(keys, ids)
    return int(inserted), stale_extra, len(reservoir)


def window_prepare_kernel(
    state: Dict[str, object], weighted: bool
) -> Tuple[int, float, int, float]:
    """Pipelined prepare for the sliding-window sampler: stamped batch + keys.

    Sliding windows admit no insertion threshold, so the prepared keys are
    dense and never stale — windowed pipelining is exact by construction.
    Keys always come from the dedicated generation RNG, since the kernel
    is designed to overlap the selection's pivot proposals.  Returns
    ``(batch_items, batch_weight, max_stamp, seconds)``.
    """
    start = time.perf_counter()
    with _beat_phase(state, "prepare"), _state_tracer(state).span("prepare", cat="kernel"):
        batch = _require_stream(state).next_batch()
        stamps = getattr(batch, "stamps", None)
        if stamps is None:
            raise RuntimeError("window_prepare_kernel needs a stamped stream shard")
        keys = _generate_keys(batch.weights, weighted, state["gen_rng"])
        state["prepared"] = {"keys": keys, "ids": batch.ids, "stamps": stamps}
    max_stamp = int(stamps[-1]) if stamps.shape[0] else -1
    return len(batch), float(batch.total_weight), max_stamp, time.perf_counter() - start


def window_ingest_prepared_kernel(state: Dict[str, object]) -> Tuple[int, int]:
    """Append the parked stamped candidates to the window buffer.

    Returns ``(kept, buffer_size)`` like :func:`window_insert_kernel`.
    """
    prepared = state.get("prepared")
    if prepared is None:
        raise RuntimeError("no prepared batch; dispatch window_prepare_kernel first")
    state["prepared"] = None
    buffer = state["reservoir"]
    if prepared["ids"].shape[0] == 0:
        return 0, len(buffer)
    kept = buffer.append(prepared["stamps"], prepared["keys"], prepared["ids"])
    return int(kept), len(buffer)


# ---------------------------------------------------------------------------
# query / maintenance kernels (distributed sampler)
# ---------------------------------------------------------------------------
def local_size_kernel(state: Dict[str, object]) -> int:
    return len(state["reservoir"])


def max_key_kernel(state: Dict[str, object]) -> float:
    reservoir: LocalReservoir = state["reservoir"]
    return reservoir.max_key() if len(reservoir) else -np.inf


def prune_kernel(state: Dict[str, object], threshold: float) -> Tuple[int, int]:
    """Prune above the threshold; returns ``(size_before, size_after)``."""
    reservoir: LocalReservoir = state["reservoir"]
    size_before = len(reservoir)
    keep = reservoir.count_le(threshold)
    reservoir.prune_to_rank(keep)
    return size_before, len(reservoir)


def items_kernel(state: Dict[str, object]) -> List[Tuple[float, int]]:
    with _beat_phase(state, "gather"), _state_tracer(state).span("gather", cat="kernel"):
        return state["reservoir"].items()


def item_ids_kernel(state: Dict[str, object]) -> np.ndarray:
    with _beat_phase(state, "gather"), _state_tracer(state).span("gather", cat="kernel"):
        return state["reservoir"].item_ids()


def keys_array_kernel(state: Dict[str, object]) -> np.ndarray:
    return state["reservoir"].keys_array()


def preload_kernel(state: Dict[str, object], items: Sequence[Tuple[float, int]]) -> int:
    """Install pre-computed (key, id) pairs; returns the reservoir size."""
    reservoir: LocalReservoir = state["reservoir"]
    for key, item_id in items:
        reservoir.insert(float(key), int(item_id))
    return len(reservoir)


def count_le_kernel(state: Dict[str, object], key: float) -> int:
    return state["reservoir"].count_le(key)


def count_less_kernel(state: Dict[str, object], key: float) -> int:
    return state["reservoir"].count_less(key)


def kth_key_kernel(state: Dict[str, object], rank: int) -> float:
    return state["reservoir"].kth_key(rank)


def kth_keys_kernel(state: Dict[str, object], ranks: np.ndarray) -> np.ndarray:
    return state["reservoir"].kth_keys(ranks)


def range_keys_kernel(state: Dict[str, object], lo: int, hi: int) -> np.ndarray:
    return state["reservoir"].keys_in_rank_range(lo, hi)


# ---------------------------------------------------------------------------
# selection kernels
# ---------------------------------------------------------------------------
def window_counts_kernel(
    state: Dict[str, object], pivots: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Per-pivot counts of active keys (local ranks in ``[lo, hi)``) at most
    as large as each pivot, clipped to the window."""
    reservoir: LocalReservoir = state["reservoir"]
    if hi <= lo:
        return np.zeros(np.asarray(pivots).shape[0], dtype=np.float64)
    return np.array(
        [
            min(max(reservoir.count_le(float(piv)) - lo, 0), hi - lo)
            for piv in np.asarray(pivots, dtype=np.float64)
        ],
        dtype=np.float64,
    )


def propose_window_positions(
    rng: np.random.Generator, m: int, prob: float, d: int, from_below: bool
) -> Optional[np.ndarray]:
    """Bernoulli-sample local window positions for a pivot proposal round.

    Shared by the comm-backed kernel below and the master-side default of
    :meth:`repro.selection.base.DistributedKeySet.propose_all` so both
    consume the random stream identically.  Returns 0-based window
    positions (at most ``d`` of them) or ``None`` when the sample is empty.
    """
    count = int(rng.binomial(m, prob))
    if count == 0:
        return None
    positions = rng.choice(m, size=count, replace=False)
    if from_below:
        return np.sort(positions)[:d]
    return np.sort(positions)[-d:]


def propose_pivots_kernel(
    state: Dict[str, object], lo: int, hi: int, prob: float, d: int, from_below: bool
) -> np.ndarray:
    """One PE's pivot-proposal contribution (sorted candidate keys)."""
    reservoir: LocalReservoir = state["reservoir"]
    rng: np.random.Generator = state["rng"]
    m = hi - lo
    if m <= 0:
        return np.empty(0, dtype=np.float64)
    with _beat_phase(state, "select"), _state_tracer(state).span("select", cat="kernel"):
        positions = propose_window_positions(rng, m, prob, d, from_below)
        if positions is None:
            return np.empty(0, dtype=np.float64)
        keys = reservoir.kth_keys(lo + positions.astype(np.int64) + 1)
        return np.sort(keys)


# ---------------------------------------------------------------------------
# sliding-window kernels (distributed windowed sampler)
# ---------------------------------------------------------------------------
def window_insert_kernel(
    state: Dict[str, object],
    ids: np.ndarray,
    weights: np.ndarray,
    stamps: np.ndarray,
    weighted: bool,
) -> Tuple[int, int]:
    """Ingest one timestamped mini-batch into the window candidate buffer.

    Every item receives a dense key — sliding windows admit no insertion
    threshold, since an item above today's sample boundary may enter the
    sample once smaller keys expire.  Pruning instead happens inside the
    buffer via the suffix-top-k invariant.  Returns
    ``(kept, buffer_size)``.
    """
    buffer = state["reservoir"]
    if ids.shape[0] == 0:
        return 0, len(buffer)
    with _beat_phase(state, "insert", int(ids.shape[0]), bump_round=True), _state_tracer(
        state
    ).span("insert", cat="kernel", items=int(ids.shape[0])):
        rng: np.random.Generator = state["rng"]
        keys = _generate_keys(weights, weighted, rng)
        kept = buffer.append(stamps, keys, ids)
    return kept, len(buffer)


def window_evict_kernel(state: Dict[str, object], cutoff: int) -> Tuple[int, int]:
    """Expire buffered items with ``stamp <= cutoff``; returns
    ``(evicted, live_size)``."""
    buffer = state["reservoir"]
    with _beat_phase(state, "expire"), _state_tracer(state).span("expire", cat="kernel"):
        evicted = buffer.evict_older_than(int(cutoff))
    return evicted, len(buffer)


def window_sample_ids_kernel(state: Dict[str, object], threshold: float) -> np.ndarray:
    """Ids of the buffered items whose keys are at most the sample boundary.

    Unlike :func:`prune_kernel` this does **not** remove the items above
    the boundary — they stay buffered to backfill the sample after future
    expiry."""
    return state["reservoir"].ids_at_most(float(threshold))


def window_sample_items_kernel(
    state: Dict[str, object], threshold: float
) -> List[Tuple[float, int]]:
    """(key, id) pairs at most the sample boundary, in key order.

    Filtering PE-side keeps the above-boundary backfill candidates out of
    the coordinator transfer (they can be several times the sample size)."""
    return state["reservoir"].items_at_most(float(threshold))


# ---------------------------------------------------------------------------
# centralized-baseline kernels
# ---------------------------------------------------------------------------
def centralized_candidates_kernel(
    state: Dict[str, object],
    ids: np.ndarray,
    weights: np.ndarray,
    threshold: Optional[float],
    weighted: bool,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Filter one local batch to the candidates below the current threshold.

    Mirrors the insert phase of the centralized algorithm: dense keys while
    no threshold exists (keeping only the ``k`` smallest of a large first
    batch), exponential/geometric jumps afterwards.
    """
    rng: np.random.Generator = state["rng"]
    b = ids.shape[0]
    if b == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    with _beat_phase(state, "gather", int(b), bump_round=True), _state_tracer(state).span(
        "gather", cat="kernel", items=int(b)
    ):
        if threshold is None:
            if weighted:
                keys = keymod.exponential_keys(weights, rng)
            else:
                keys = keymod.uniform_keys(b, rng)
            if b > k:
                order = np.argpartition(keys, k - 1)[:k]
                keys, ids = keys[order], ids[order]
            return keys, ids
        idx, keys = _jump_positions(state, weights, threshold, weighted, rng)
        return keys, ids[idx]


def centralized_stream_candidates_kernel(
    state: Dict[str, object], threshold: Optional[float], weighted: bool, k: int
) -> Tuple[np.ndarray, np.ndarray, int, float]:
    """Stream-shard variant; also returns ``(batch_items, batch_weight)``."""
    batch = _require_stream(state).next_batch()
    keys, ids = centralized_candidates_kernel(
        state, batch.ids, batch.weights, threshold, weighted, k
    )
    return keys, ids, len(batch), float(batch.total_weight)


# ---------------------------------------------------------------------------
# checkpoint kernels
# ---------------------------------------------------------------------------
def _copy_prepared(prepared: Optional[Dict[str, object]]) -> Optional[Dict[str, object]]:
    if prepared is None:
        return None
    return {
        key: (value.copy() if isinstance(value, np.ndarray) else value)
        for key, value in prepared.items()
    }


def export_pe_state_kernel(state: Dict[str, object]) -> Dict[str, object]:
    """Snapshot everything mutable in a PE state for a checkpoint.

    The snapshot is field-wise (generators export their bit-generator
    state, stream shards export their replay position, reservoirs export
    their sorted contents) rather than a pickle of the live objects, so
    it contains no locks and travels through either payload transport.
    Works for all three state shapes (:func:`make_pe_state`,
    :func:`make_window_pe_state`, :func:`make_centralized_state`).
    """
    with _state_tracer(state).span("checkpoint.export", cat="checkpoint"):
        snapshot: Dict[str, object] = {
            "pe": int(state["pe"]),
            "kernel_tier": state["kernel_tier"],
            "rng": state["rng"].bit_generator.state,
            "gen_rng": None,
            "reservoir": None,
            "stream": None,
            "prepared": None,
        }
        gen_rng = state.get("gen_rng")
        if gen_rng is not None:
            snapshot["gen_rng"] = gen_rng.bit_generator.state
        reservoir = state.get("reservoir")
        if reservoir is not None:
            snapshot["reservoir"] = reservoir.export_state()
        stream = state.get("stream")
        if stream is not None:
            snapshot["stream"] = stream.export_state()
        snapshot["prepared"] = _copy_prepared(state.get("prepared"))
        return snapshot


def import_pe_state_kernel(state: Dict[str, object], snapshot: Dict[str, object]) -> int:
    """Overwrite a (freshly factory-created) PE state with a snapshot.

    The state dict keeps its factory-built objects — reservoir, policy,
    generators — and only their *contents* are replaced, so a respawned
    worker first re-runs the original state factory and then imports the
    checkpoint.  Returns the PE index as a cheap sanity echo.
    """
    if int(snapshot["pe"]) != int(state["pe"]):
        raise ValueError(
            f"checkpoint snapshot for PE {snapshot['pe']} applied to PE {state['pe']}"
        )
    with _state_tracer(state).span("checkpoint.import", cat="checkpoint"):
        state["rng"].bit_generator.state = snapshot["rng"]
        if snapshot.get("gen_rng") is not None:
            state["gen_rng"].bit_generator.state = snapshot["gen_rng"]
        if snapshot.get("reservoir") is not None:
            state["reservoir"].restore_state(snapshot["reservoir"])
        stream_snapshot = snapshot.get("stream")
        state["stream"] = (
            WorkerStreamShard.from_state(stream_snapshot) if stream_snapshot is not None else None
        )
        state["prepared"] = _copy_prepared(snapshot.get("prepared"))
        return int(state["pe"])
