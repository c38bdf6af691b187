"""Sequential reservoir samplers (paper Sections 3.1 and 4.1).

These are the single-PE building blocks of the distributed algorithm and
double as baselines and as reference implementations for the statistical
tests:

* :class:`SequentialWeightedReservoir` — weighted reservoir sampling over a
  stream of mini-batches: every batch gets dense exponential keys, is
  prefiltered against the current threshold (the largest key in the
  reservoir), merged into a :class:`~repro.core.store.ReservoirStore` and
  truncated to ``k``.
* :class:`SequentialUniformReservoir` — the same batch path with uniform
  keys.
* :func:`dense_weighted_sample` / :func:`dense_uniform_sample` — brute-force
  reference samplers that give every item a key and keep the ``k`` smallest;
  the distribution of their output is by construction correct, so they are
  the ground truth for the statistical equivalence tests.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import keys as keymod
from repro.core.store import ReservoirStore, make_store, normalize_store_name
from repro.stream.items import ItemBatch
from repro.utils.rng import ensure_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "SequentialWeightedReservoir",
    "SequentialUniformReservoir",
    "dense_weighted_sample",
    "dense_uniform_sample",
]


def ingest_keyed_batch(
    store: ReservoirStore,
    keys: np.ndarray,
    ids: np.ndarray,
    k: int,
    *,
    threshold: Optional[float] = None,
    weights: Optional[np.ndarray] = None,
    weights_by_id: Optional[dict] = None,
) -> int:
    """Shared store-backed batch ingestion: prefilter, merge, truncate.

    Keys at or above ``threshold`` are dropped, the survivors are merged
    into ``store`` truncated to ``k`` items, and the returned count is the
    number of batch items that ended up *in* the reservoir, not merely
    passed the prefilter.  When ``weights_by_id`` is given, the weights of
    those items are recorded and the mapping is pruned to the stored ids
    once it grows past ``4 * k + 64`` entries.  Shared by the sequential
    samplers and :class:`repro.window.decayed.DecayedReservoir`, whose
    batch paths differ only in how the keys are generated.
    """
    if weights_by_id is not None and weights is None:
        raise ValueError("weights_by_id bookkeeping requires the weight array")
    if threshold is not None:
        mask = keys < threshold
        keys, ids = keys[mask], ids[mask]
        if weights is not None:
            weights = weights[mask]
    inserted = store.insert_batch(keys, ids, capacity=k)
    if inserted and len(store) >= k:
        entered = keys <= store.max_key()
        inserted = int(np.count_nonzero(entered))
        if weights_by_id is not None:
            ids, weights = ids[entered], weights[entered]
    if weights_by_id is not None:
        for item_id, weight in zip(ids.tolist(), weights.tolist()):
            weights_by_id[item_id] = weight
        if len(weights_by_id) > 4 * k + 64:
            kept = set(store.ids_array().tolist())
            for item_id in [i for i in weights_by_id if i not in kept]:
                del weights_by_id[item_id]
    return inserted


class SequentialWeightedReservoir:
    """Weighted reservoir sampler over a stream of (id, weight) batches.

    Parameters
    ----------
    k:
        Sample size.
    seed:
        Seed or generator for the random key stream.
    store:
        Reservoir store backend, ``"merge"`` (default) or ``"btree"``; the
        backend never changes the sample.
    kernel_tier:
        Store merge implementation (``"numpy"``, ``"jit"`` or ``"auto"``,
        see :mod:`repro.core.jit_kernels`); never changes the sample.

    Notes
    -----
    The sampler keeps the ``k`` items with the smallest exponential keys
    ``-ln(U)/w`` seen so far (Section 3.1).  Every batch gets dense keys, is
    prefiltered against the current threshold (the largest stored key) and
    merged into the store in one pass, which is then truncated to ``k``.
    :meth:`insert` feeds a batch of one.
    """

    def __init__(
        self, k: int, seed=None, *, store: str = "merge", kernel_tier: str = "numpy"
    ) -> None:
        self.k = check_positive_int(k, "k")
        self._rng = ensure_generator(seed)
        self.store = normalize_store_name(store)
        self._store: ReservoirStore = make_store(self.store, kernel_tier=kernel_tier)
        self._weights_by_id = {}
        self._items_seen = 0
        self._total_weight = 0.0
        self._insertions = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Current number of items in the reservoir (``min(k, n)``)."""
        return len(self._store)

    @property
    def items_seen(self) -> int:
        return self._items_seen

    @property
    def total_weight(self) -> float:
        return self._total_weight

    @property
    def insertions(self) -> int:
        """Number of reservoir insertions performed so far (diagnostics)."""
        return self._insertions

    @property
    def threshold(self) -> Optional[float]:
        """Current insertion threshold (largest key), ``None`` while filling."""
        return self._store.max_key() if len(self._store) >= self.k else None

    # ------------------------------------------------------------------
    def _ingest(self, ids: np.ndarray, weights: np.ndarray) -> int:
        keys = keymod.exponential_keys(weights, self._rng)
        self._items_seen += ids.shape[0]
        self._total_weight += float(weights.sum())
        inserted = ingest_keyed_batch(
            self._store,
            keys,
            ids,
            self.k,
            threshold=self.threshold,
            weights=weights,
            weights_by_id=self._weights_by_id,
        )
        self._insertions += inserted
        return inserted

    def process(self, batch: ItemBatch) -> int:
        """Process a whole batch; returns how many of its items entered the reservoir."""
        return self._ingest(batch.ids, batch.weights)

    def insert(self, item_id: int, weight: float) -> bool:
        """Process one item as a batch of one; ``True`` if it entered the reservoir."""
        ids = np.array([item_id], dtype=np.int64)
        return self._ingest(ids, np.array([weight], dtype=np.float64)) > 0

    def extend(self, items: Iterable[Tuple[int, float]]) -> None:
        """Process an iterable of ``(id, weight)`` pairs as one batch."""
        pairs = list(items)
        self.process(ItemBatch(ids=[i for i, _ in pairs], weights=[w for _, w in pairs]))

    # ------------------------------------------------------------------
    def sample(self) -> List[Tuple[int, float]]:
        """The current sample as ``(item id, weight)`` pairs (unordered)."""
        return [(int(i), self._weights_by_id[int(i)]) for i in self._store.ids_array()]

    def sample_ids(self) -> np.ndarray:
        """The current sample's item ids."""
        return self._store.ids_array()

    def sample_with_keys(self) -> List[Tuple[float, int, float]]:
        """The current sample as ``(key, id, weight)`` triples."""
        return [
            (key, int(item_id), self._weights_by_id[int(item_id)])
            for key, item_id in self._store.items()
        ]


class SequentialUniformReservoir:
    """Uniform reservoir sampler: the batch path of
    :class:`SequentialWeightedReservoir` with uniform keys in ``(0, 1]``."""

    def __init__(
        self, k: int, seed=None, *, store: str = "merge", kernel_tier: str = "numpy"
    ) -> None:
        self.k = check_positive_int(k, "k")
        self._rng = ensure_generator(seed)
        self.store = normalize_store_name(store)
        self._store: ReservoirStore = make_store(self.store, kernel_tier=kernel_tier)
        self._items_seen = 0
        self._insertions = 0

    @property
    def size(self) -> int:
        return len(self._store)

    @property
    def items_seen(self) -> int:
        return self._items_seen

    @property
    def insertions(self) -> int:
        return self._insertions

    @property
    def threshold(self) -> Optional[float]:
        return self._store.max_key() if len(self._store) >= self.k else None

    # ------------------------------------------------------------------
    def _ingest(self, ids: np.ndarray) -> int:
        keys = keymod.uniform_keys(ids.shape[0], self._rng)
        self._items_seen += ids.shape[0]
        inserted = ingest_keyed_batch(self._store, keys, ids, self.k, threshold=self.threshold)
        self._insertions += inserted
        return inserted

    def process(self, batch: ItemBatch) -> int:
        """Process a batch (weights ignored); returns how many of its items entered."""
        return self._ingest(batch.ids)

    def insert(self, item_id: int) -> bool:
        """Process one item as a batch of one; ``True`` if it entered the reservoir."""
        return self._ingest(np.array([item_id], dtype=np.int64)) > 0

    def extend_ids(self, ids: Iterable[int]) -> None:
        """Process an iterable of ids as one batch."""
        self._ingest(np.fromiter(ids, dtype=np.int64))

    def sample_ids(self) -> np.ndarray:
        return self._store.ids_array()

    def sample_with_keys(self) -> List[Tuple[float, int, float]]:
        return [(key, int(item_id), 1.0) for key, item_id in self._store.items()]


# ---------------------------------------------------------------------------
# dense reference samplers
# ---------------------------------------------------------------------------
def dense_weighted_sample(
    ids: Sequence[int], weights: Sequence[float], k: int, rng=None
) -> np.ndarray:
    """Brute-force weighted sample without replacement of size ``min(k, n)``.

    Gives every item an exponential key and returns the ids of the ``k``
    smallest.  Correct by construction (Section 3.1); used as ground truth.
    """
    rng = ensure_generator(rng)
    ids = np.asarray(ids, dtype=np.int64)
    keys = keymod.exponential_keys(np.asarray(weights, dtype=np.float64), rng)
    k = min(int(k), ids.shape[0])
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    order = np.argpartition(keys, k - 1)[:k]
    return ids[order]


def dense_uniform_sample(ids: Sequence[int], k: int, rng=None) -> np.ndarray:
    """Brute-force uniform sample without replacement of size ``min(k, n)``."""
    rng = ensure_generator(rng)
    ids = np.asarray(ids, dtype=np.int64)
    keys = keymod.uniform_keys(ids.shape[0], rng)
    k = min(int(k), ids.shape[0])
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    order = np.argpartition(keys, k - 1)[:k]
    return ids[order]
