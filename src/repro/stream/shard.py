"""Worker-local stream shards for the real execution backend.

When the mini-batch stream is generated *inside* each worker process
(:meth:`~repro.core.distributed.DistributedReservoirSampler.attach_worker_stream`),
the coordinator no longer has to materialise and ship every batch over a
pipe — stream generation and ingestion both run in parallel on the
workers, which is what makes the multiprocess backend scale.

:class:`WorkerStreamShard` reproduces exactly the per-PE sub-stream a
:class:`~repro.stream.minibatch.MiniBatchStream` with a *constant* batch
size (no jitter) would deliver to one PE: the same
``SeedSequence``-spawned random stream, the same weight generator call
pattern, and the same globally unique contiguous item ids.  The shard
equivalence test asserts this batch-for-batch.

Two extensions serve the asynchronous ingestion pipeline
(:mod:`repro.pipeline`):

* :meth:`WorkerStreamShard.prefetch` materialises the next batch ahead of
  time (the strict pipeline mode calls it from a background thread while
  the coordinator finishes the previous round's selection) — the values
  delivered by the following :meth:`next_batch` are unchanged, only the
  moment they are computed moves;
* ``variable=True`` shards accept :meth:`set_batch_size` between rounds
  (adaptive mini-batch sizing).  Variable shards switch to PE-interleaved
  item ids (``id = index * p + pe``), which stay globally unique for any
  sequence of batch sizes; the contiguous-id replica guarantee only holds
  for fixed-size shards.

``stamped=True`` shards emit :class:`~repro.stream.stamped.TimestampedItemBatch`
batches whose stamps equal the global arrival index — for a constant batch
size this reproduces :class:`~repro.stream.stamped.TimestampedMiniBatchStream`
exactly (there, too, the stamp of every item equals its id).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.stream.generators import UniformWeightGenerator, WeightGenerator
from repro.stream.items import ItemBatch
from repro.stream.stamped import TimestampedItemBatch
from repro.utils.rng import spawn_seed_sequences
from repro.utils.validation import check_positive_int

__all__ = ["StreamShardSpec", "WorkerStreamShard", "make_shard_specs"]


@dataclass(frozen=True)
class StreamShardSpec:
    """Picklable description of one PE's share of a synthetic stream.

    Attributes
    ----------
    p:
        Total number of PEs of the stream (needed for globally unique ids
        and for spawning the same per-PE seed sequences as
        :class:`~repro.stream.minibatch.MiniBatchStream`).
    pe:
        The PE this shard belongs to.
    batch_size:
        Items per round for this PE (the initial size for variable shards,
        constant across rounds otherwise).
    seed:
        Stream seed; must be the same on every PE.
    weights:
        Weight generator; defaults to the paper's uniform 0..100 weights.
    stamped:
        Emit timestamped batches whose stamps are the items' global
        arrival indices (equal to the ids for this synthetic stream).
    variable:
        Allow :meth:`WorkerStreamShard.set_batch_size` between rounds;
        switches the id layout to PE-interleaved (collision-free for any
        size sequence) instead of the fixed-size contiguous layout.
    id_offset:
        Constant added to every generated item id.  Elastic re-sharding
        (:mod:`repro.checkpoint.elastic`) uses it to start a resharded
        stream's ids past everything the pre-reshard stream emitted; the
        same offset must be used on every PE (distinctness across PEs is
        preserved because the whole id grid shifts together).
    """

    p: int
    pe: int
    batch_size: int
    seed: Optional[int] = 0
    weights: WeightGenerator = field(default_factory=UniformWeightGenerator)
    stamped: bool = False
    variable: bool = False
    id_offset: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.p, "p")
        check_positive_int(self.batch_size, "batch_size")
        if not 0 <= self.pe < self.p:
            raise ValueError(f"pe {self.pe} out of range 0..{self.p - 1}")
        if self.id_offset < 0:
            raise ValueError(f"id_offset must be non-negative, got {self.id_offset}")


def make_shard_specs(
    p: int,
    batch_size: int,
    *,
    seed: Optional[int] = 0,
    variable: bool = False,
    stamped: bool = False,
    id_offset: int = 0,
) -> list:
    """One :class:`StreamShardSpec` per PE for the same synthetic stream.

    Shared by every sampler's ``attach_worker_stream`` so the shard
    parameters cannot drift between the sampler families.
    """
    check_positive_int(batch_size, "batch_size")
    return [
        StreamShardSpec(
            p=p,
            pe=pe,
            batch_size=batch_size,
            seed=seed,
            variable=variable,
            stamped=stamped,
            id_offset=id_offset,
        )
        for pe in range(p)
    ]


class WorkerStreamShard:
    """Generates one PE's mini-batches locally, round by round."""

    def __init__(self, spec: StreamShardSpec) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(spawn_seed_sequences(spec.seed, spec.p)[spec.pe])
        self._round = 0
        self._batch_size = spec.batch_size
        self._emitted = 0  # items produced so far (drives interleaved ids)
        self._id_high = spec.id_offset  # exclusive upper bound on emitted ids
        self._prefetched: Optional[ItemBatch] = None
        # Serialises generation against resizes: a background prefetch
        # (async pipeline dispatch) may still be generating when an autotune
        # resize arrives on the worker's main thread, and an unguarded
        # resize would mutate _batch_size/_emitted mid-generation.
        self._lock = threading.RLock()

    @property
    def round_index(self) -> int:
        """Index of the next round to be *delivered* by :meth:`next_batch`.

        A prefetched-but-unconsumed batch still counts as undelivered, so
        prefetching never shows up as a phantom extra round.
        """
        return self._round - (1 if self._prefetched is not None else 0)

    @property
    def batch_size(self) -> int:
        """Items per round currently in effect."""
        return self._batch_size

    def set_batch_size(self, batch_size: int) -> None:
        """Change the per-round batch size (variable shards only).

        Takes effect from the next generated batch; an already prefetched
        batch keeps the size it was generated with.  Safe to call while a
        background :meth:`prefetch` is in flight — the resize waits for the
        in-progress generation rather than mutating its inputs.
        """
        check_positive_int(batch_size, "batch_size")
        if not self.spec.variable:
            raise ValueError(
                "shard batch size is fixed; create the shard with variable=True "
                "(e.g. batch_size='auto' on the run drivers) to resize it"
            )
        with self._lock:
            self._batch_size = batch_size

    def _ids_for_round(self, size: int) -> np.ndarray:
        spec = self.spec
        if spec.variable:
            # PE-interleaved ids stay globally unique for any size sequence.
            start = spec.id_offset + self._emitted * spec.p + spec.pe
            return np.arange(start, start + size * spec.p, spec.p, dtype=np.int64)
        start = spec.id_offset + (self._round * spec.p + spec.pe) * size
        return np.arange(start, start + size, dtype=np.int64)

    def _generate(self) -> ItemBatch:
        spec = self.spec
        with self._lock:
            size = self._batch_size
            weights = spec.weights(size, self._rng, pe=spec.pe, round_index=self._round)
            ids = self._ids_for_round(size)
            self._round += 1
            self._emitted += size
            if ids.size:
                self._id_high = max(self._id_high, int(ids[-1]) + 1)
        if spec.stamped:
            # For this synthetic stream the global arrival index IS the id
            # (items arrive in id order across PEs within a round), matching
            # TimestampedMiniBatchStream's stamping convention.
            return TimestampedItemBatch(ids=ids, weights=weights, stamps=ids.copy())
        return ItemBatch(ids=ids, weights=weights)

    def prefetch(self) -> int:
        """Materialise the next batch ahead of time; returns its length.

        Idempotent until the batch is consumed by :meth:`next_batch`.  Only
        the shard's own random stream is touched, so a prefetch may run in
        a background thread while the PE participates in collectives.
        """
        with self._lock:
            if self._prefetched is None:
                self._prefetched = self._generate()
            return len(self._prefetched)

    def next_batch(self) -> ItemBatch:
        """The PE's batch of the next round (ids match ``MiniBatchStream``)."""
        # The fallback _generate stays under the (re-entrant) lock: a
        # prefetch landing between the check and the generation would
        # otherwise orphan its batch and deliver rounds out of order.
        with self._lock:
            if self._prefetched is not None:
                batch, self._prefetched = self._prefetched, None
                return batch
            return self._generate()

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Picklable snapshot of the shard's replay position.

        The snapshot is field-wise (the shard itself holds an unpicklable
        lock): the spec, the generator's bit-generator state, the round
        and emission counters, and any prefetched-but-unconsumed batch.
        Restoring it with :meth:`from_state` and generating onward yields
        exactly the batches the original shard would have produced.
        """
        with self._lock:
            prefetched = self._prefetched
            if prefetched is not None:
                prefetched = {
                    "ids": prefetched.ids.copy(),
                    "weights": prefetched.weights.copy(),
                    "stamps": (
                        prefetched.stamps.copy()
                        if isinstance(prefetched, TimestampedItemBatch)
                        else None
                    ),
                }
            return {
                "spec": self.spec,
                "rng": self._rng.bit_generator.state,
                "round": self._round,
                "batch_size": self._batch_size,
                "emitted": self._emitted,
                "id_high": self._id_high,
                "prefetched": prefetched,
            }

    @classmethod
    def from_state(cls, state: dict) -> "WorkerStreamShard":
        """Rebuild a shard at the exact position of an :meth:`export_state`."""
        shard = cls(state["spec"])
        shard._rng.bit_generator.state = state["rng"]
        shard._round = int(state["round"])
        shard._batch_size = int(state["batch_size"])
        shard._emitted = int(state["emitted"])
        shard._id_high = int(state["id_high"])
        prefetched = state.get("prefetched")
        if prefetched is not None:
            if prefetched["stamps"] is not None:
                shard._prefetched = TimestampedItemBatch(
                    ids=prefetched["ids"],
                    weights=prefetched["weights"],
                    stamps=prefetched["stamps"],
                )
            else:
                shard._prefetched = ItemBatch(ids=prefetched["ids"], weights=prefetched["weights"])
        return shard

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"WorkerStreamShard(pe={self.spec.pe}/{self.spec.p}, round={self.round_index})"
