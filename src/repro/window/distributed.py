"""The distributed sliding-window reservoir sampler.

Extends the paper's Algorithm 1 to the sliding-window workload: the union
of the per-PE candidate buffers is, at every round boundary, a weighted
(or uniform) sample without replacement of size ``min(k, |window|)`` of
the **live window** — the items whose timestamps lie within the last
``window`` stamp units.

The round structure differs from the unbounded sampler in two essential
ways:

1. **No insertion threshold.**  Pruning arrivals below the global rank-k
   key is unsound under expiry: a discarded item's smaller-key dominators
   may all be *older* and expire first, after which the item should have
   entered the sample.  Each PE instead prunes with the suffix-top-k
   invariant (see :mod:`repro.window.buffer`), whose dominators are by
   construction *younger* — dropping is permanently safe and the per-PE
   buffer stays at ``O(k log W)`` expected items.
2. **The threshold is recomputed every round.**  After each PE evicts its
   expired candidates (one vectorized mask over the stamp array), the
   distributed selection re-runs over the surviving keysets (one
   :meth:`~repro.selection.engine.OrderStatisticsEngine.threshold_update`
   call) to re-establish the key with global rank ``k``.  That key is the *sample
   boundary* used to extract ``sample_ids()`` — the buffers are **not**
   pruned against it.

The selection reuses the exact machinery of the unbounded sampler: the
communicator-backed keyset dispatches the generic rank/select and
pivot-proposal kernels of :mod:`repro.core.pe_kernels` against the per-PE
buffers, so the same code runs on :class:`~repro.network.communicator.SimComm`
and :class:`~repro.network.process_comm.ProcessComm` and the same seed
yields byte-identical samples on both (enforced by
``tests/window/test_distributed_window.py``).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import pe_kernels
from repro.core.distributed import (
    CommBackedKeySet,
    charge_selection_work,
    collect_phase_times,
)
from repro.network.base import Communicator
from repro.runtime.clock import PhaseClock
from repro.runtime.machine import MachineSpec
from repro.runtime.metrics import RoundMetrics
from repro.selection.base import SelectionAlgorithm, SelectionResult
from repro.selection.bernoulli_pivot import SinglePivotSelection
from repro.selection.engine import OrderStatisticsEngine
from repro.stream.items import ItemBatch
from repro.utils.rng import spawn_seed_sequences
from repro.utils.validation import check_positive_int

__all__ = ["DistributedWindowSampler"]


class DistributedWindowSampler:
    """Distributed sliding-window reservoir sampling over timestamped batches.

    Parameters
    ----------
    k:
        Sample size.
    window:
        Window length ``W`` in stamp units: an item is live while its
        stamp exceeds ``newest_stamp - W``.  With the default arrival-index
        stamps this is "the last ``W`` items across all PEs".
    comm:
        Communicator over the ``p`` PEs (simulated or multiprocess).
    selection:
        Distributed selection algorithm used to re-establish the sample
        boundary each round; defaults to single-pivot selection.
    machine:
        Machine model used to charge simulated local-work time.
    weighted:
        ``True`` for weighted sampling (exponential keys), ``False`` for
        uniform sampling.
    seed:
        Seed from which the per-PE random streams are derived.
    amortise_selection:
        Skip the per-round threshold re-selection when a single counting
        all-reduction proves the old boundary still separates exactly
        ``k`` live keys (neither eviction nor insertion touched the
        sample), in which case re-selecting could only confirm the same
        sample.  Skipped rounds are flagged in
        :attr:`~repro.runtime.metrics.RoundMetrics.selection_skipped` and
        counted in :attr:`selection_skips`.

    Batches passed to :meth:`process_round` may be
    :class:`~repro.stream.stamped.TimestampedItemBatch` (explicit stamps)
    or plain :class:`~repro.stream.items.ItemBatch`, in which case stamps
    are assigned from a global arrival counter in PE order — matching
    :class:`~repro.stream.stamped.TimestampedMiniBatchStream`.
    """

    algorithm_name = "ours-window"
    #: reservoir storage marker reported in run metrics
    store = "window"

    def __init__(
        self,
        k: int,
        window: int,
        comm: Communicator,
        *,
        selection: Optional[SelectionAlgorithm] = None,
        machine: Optional[MachineSpec] = None,
        weighted: bool = True,
        seed: Optional[int] = 0,
        amortise_selection: bool = True,
        kernel_tier: str = "numpy",
    ) -> None:
        from repro.core.jit_kernels import resolve_kernel_tier

        self.k = check_positive_int(k, "k")
        self.window = check_positive_int(window, "window")
        self.comm = comm
        self.selection = selection if selection is not None else SinglePivotSelection()
        self.machine = machine if machine is not None else MachineSpec.forhlr_like()
        self.weighted = bool(weighted)
        self.amortise_selection = bool(amortise_selection)
        # windowed ingestion is dense-key (tier-invariant by construction);
        # resolved before worker creation and recorded for the run metrics
        self.kernel_tier = resolve_kernel_tier(kernel_tier)
        self._seed = seed
        seed_seqs = spawn_seed_sequences(seed, comm.p)
        self._handle = comm.create_pe_state(
            functools.partial(
                pe_kernels.make_window_pe_state, k=self.k, kernel_tier=self.kernel_tier
            ),
            per_pe_args=[(ss,) for ss in seed_seqs],
        )
        self._has_worker_stream = False
        #: sample boundary: key with global rank ``min(k, live)`` (``None``
        #: while the whole live window fits into the sample)
        self.threshold: Optional[float] = None
        self._items_seen = 0
        self._total_weight = 0.0
        self._round = 0
        self._next_stamp = 0
        self._max_stamp = -1
        self._evicted_total = 0
        self._selection_skips = 0

    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        """Number of PEs."""
        return self.comm.p

    @property
    def items_seen(self) -> int:
        """Total number of items processed so far (all PEs)."""
        return self._items_seen

    @property
    def total_weight(self) -> float:
        return self._total_weight

    @property
    def rounds_processed(self) -> int:
        return self._round

    @property
    def evicted_items(self) -> int:
        """Total number of buffered candidates expired so far (all PEs)."""
        return self._evicted_total

    @property
    def selection_skips(self) -> int:
        """Rounds whose re-selection the amortised boundary check skipped."""
        return self._selection_skips

    def attach_worker_stream(
        self,
        batch_size: int,
        *,
        seed: Optional[int] = 0,
        variable: bool = False,
    ) -> None:
        """Install a worker-local *stamped* stream shard on every PE.

        Used by pipelined runs (:mod:`repro.pipeline`): each PE
        generates its own timestamped batches, replicating a
        constant-batch-size
        :class:`~repro.stream.stamped.TimestampedMiniBatchStream` exactly
        (for fixed-size shards).
        """
        from repro.stream.shard import make_shard_specs

        specs = make_shard_specs(self.p, batch_size, seed=seed, variable=variable, stamped=True)
        self.comm.run_per_pe(
            self._handle, pe_kernels.install_stream_kernel, [(spec,) for spec in specs]
        )
        self._has_worker_stream = True

    def keyset(self) -> CommBackedKeySet:
        """A selection view over the current per-PE candidate buffers."""
        return CommBackedKeySet(self.comm, self._handle)

    def engine(self) -> OrderStatisticsEngine:
        """The order-statistics engine over the live candidate buffers."""
        return OrderStatisticsEngine(self.keyset(), self.comm, policy=self.selection)

    def buffer_size(self) -> int:
        """Total number of buffered candidates (the distributed over-sample)."""
        return sum(self.comm.run_per_pe(self._handle, pe_kernels.local_size_kernel))

    # ------------------------------------------------------------------
    def _round_stamps(self, batches: Sequence[ItemBatch]) -> List[np.ndarray]:
        """Per-batch stamp arrays (explicit, or assigned in PE order)."""
        stamps_list: List[np.ndarray] = []
        for batch in batches:
            stamps = getattr(batch, "stamps", None)
            if stamps is None:
                stamps = np.arange(
                    self._next_stamp, self._next_stamp + len(batch), dtype=np.int64
                )
                self._next_stamp += len(batch)
            else:
                stamps = np.asarray(stamps, dtype=np.int64)
                if stamps.shape[0]:
                    self._next_stamp = max(self._next_stamp, int(stamps[-1]) + 1)
            stamps_list.append(stamps)
        return stamps_list

    def process_round(self, batches: Sequence[ItemBatch]) -> RoundMetrics:
        """Process one timestamped mini-batch round (one batch per PE)."""
        if len(batches) != self.p:
            raise ValueError(f"expected {self.p} batches (one per PE), got {len(batches)}")
        stamps_list = self._round_stamps(batches)
        clock = PhaseClock(self.p)
        phase_comm_before = self.comm.ledger.time_by_phase()

        # 1. insert: dense keys + suffix-top-k pruning inside each buffer
        with self.comm.phase("insert"):
            results = self.comm.run_per_pe(
                self._handle,
                pe_kernels.window_insert_kernel,
                [
                    (batch.ids, batch.weights, stamps, self.weighted)
                    for batch, stamps in zip(batches, stamps_list)
                ],
            )
        for pe, ((kept, size), batch) in enumerate(zip(results, batches)):
            b = len(batch)
            if b:
                clock.charge(
                    "insert",
                    pe,
                    self.machine.scan_time(b, batch_size=b)
                    + self.machine.key_gen_time(b)
                    + self.machine.tree_op_time(int(kept) + 1, max(int(size), 1)),
                )
        batch_items = sum(len(batch) for batch in batches)
        self._items_seen += batch_items
        self._total_weight += sum(batch.total_weight for batch in batches)
        for stamps in stamps_list:
            if stamps.shape[0]:
                self._max_stamp = max(self._max_stamp, int(stamps[-1]))
        insertions = [int(kept) for kept, _ in results]
        return self._expire_select_finish(clock, phase_comm_before, batch_items, insertions)

    def _expire_select_finish(
        self,
        clock: PhaseClock,
        phase_comm_before: Dict[str, float],
        batch_items: int,
        insertions: List[int],
    ) -> RoundMetrics:
        """Expire + re-select + metric assembly, after this round's insert.

        Shared by :meth:`process_round` and the pipelined engine of
        :mod:`repro.pipeline`, whose insert phase ingests worker-prepared
        batches instead of coordinator-shipped ones.  ``self._max_stamp``
        must already reflect the inserted batches.
        """
        # 2. expire: agree on the newest stamp, evict below the cutoff
        # (reduced in the integer domain — float64 would quantize stamps
        # beyond 2**53, e.g. epoch nanoseconds, and shift the cutoff)
        with self.comm.phase("expire"):
            now = self.comm.allreduce([int(self._max_stamp)] * self.p, Communicator.MAX)
            cutoff = int(now[0]) - self.window
            evict_results = self.comm.run_per_pe(
                self._handle, pe_kernels.window_evict_kernel, [(cutoff,)] * self.p
            )
        sizes = []
        evicted_round = 0
        for pe, (evicted, live) in enumerate(evict_results):
            sizes.append(int(live))
            evicted_round += int(evicted)
            clock.charge(
                "expire", pe, self.machine.tree_op_time(int(evicted) + 1, max(int(live), 1))
            )
        self._evicted_total += evicted_round

        # 3. select + threshold: re-establish the sample boundary over the
        #    surviving keysets (the buffers are never pruned against it)
        selection_result: Optional[SelectionResult] = None
        selection_ran = False
        selection_skipped = False
        engine = self.engine()
        with self.comm.phase("select"):
            total_live = engine.global_size(sizes=sizes)
        if total_live > self.k and self._boundary_still_exact(clock, sizes, engine):
            selection_skipped = True
            self._selection_skips += 1
            self.comm.tracer.instant(
                "selection.amortised_skip",
                cat="select",
                round=self._round,
                buffer_items=total_live,
            )
        else:
            if total_live > self.k:
                self.comm.tracer.instant(
                    "selection.recompute",
                    cat="select",
                    round=self._round,
                    buffer_items=total_live,
                )
            # One engine call: selection + boundary agreement when the live
            # window exceeds k, max-key tightening at exactly k, no boundary
            # below k (the whole window is the sample).
            update = engine.threshold_update(self.k, total=total_live)
            if update.selection_ran:
                selection_result = update.result
                selection_ran = True
                charge_selection_work(
                    clock, self.machine, self.selection, selection_result, sizes
                )
            self.threshold = update.threshold

        self._round += 1
        return self._build_metrics(
            clock,
            phase_comm_before,
            batch_items=batch_items,
            insertions=insertions,
            buffer_items=total_live,
            evicted=evicted_round,
            selection_result=selection_result,
            selection_ran=selection_ran,
            selection_skipped=selection_skipped,
        )

    def _boundary_still_exact(
        self, clock: PhaseClock, sizes: Sequence[int], engine: OrderStatisticsEngine
    ) -> bool:
        """Amortised selection check: does the old boundary still cut at ``k``?

        One counting all-reduction of ``count_le(threshold)`` over the live
        buffers.  When the global count equals ``k`` exactly, this round's
        eviction and insertion did not touch the sample — the ``k`` keys at
        or below the old boundary are still the ``k`` globally smallest —
        so a re-selection could only re-confirm the same sample and is
        skipped.  (The kept boundary may sit slightly above the true
        rank-``k`` key, which is harmless: extraction is by
        ``count_le``-style filtering and still yields those ``k`` items,
        and the buffers are never pruned against the boundary.)
        """
        if not self.amortise_selection or self.threshold is None:
            return False
        with self.comm.phase("select"):
            at_or_below = engine.count_le(float(self.threshold))
        for pe, size in enumerate(sizes):
            clock.charge("select", pe, self.machine.tree_op_time(1, max(int(size), 1)))
        return at_or_below == self.k

    # ------------------------------------------------------------------
    def _build_metrics(
        self,
        clock: PhaseClock,
        phase_comm_before: Dict[str, float],
        *,
        batch_items: int,
        insertions: List[int],
        buffer_items: int,
        evicted: int,
        selection_result: Optional[SelectionResult],
        selection_ran: bool,
        selection_skipped: bool = False,
    ) -> RoundMetrics:
        phase_times = collect_phase_times(
            clock, phase_comm_before, self.comm.ledger.time_by_phase()
        )
        return RoundMetrics(
            round_index=self._round - 1,
            batch_items=batch_items,
            items_seen_total=self._items_seen,
            sample_size=min(self.k, buffer_items),
            threshold=self.threshold,
            phase_times=phase_times,
            insertions_per_pe=list(insertions),
            selection_stats=selection_result.stats if selection_result is not None else None,
            selection_ran=selection_ran,
            selection_skipped=selection_skipped,
            evicted_items=evicted,
            window_buffer_items=buffer_items,
        )

    # ------------------------------------------------------------------
    def sample_ids(self) -> np.ndarray:
        """Item ids of the current window sample (``min(k, live)`` ids)."""
        if self.threshold is None:
            parts = self.comm.run_per_pe(self._handle, pe_kernels.item_ids_kernel)
        else:
            parts = self.comm.run_per_pe(
                self._handle, pe_kernels.window_sample_ids_kernel, [(self.threshold,)] * self.p
            )
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def sample_items(self) -> List[Tuple[int, float]]:
        """The current sample as ``(item id, key)`` pairs (all PEs)."""
        if self.threshold is None:
            parts = self.comm.run_per_pe(self._handle, pe_kernels.items_kernel)
        else:
            parts = self.comm.run_per_pe(
                self._handle,
                pe_kernels.window_sample_items_kernel,
                [(self.threshold,)] * self.p,
            )
        return [(item_id, key) for items in parts for key, item_id in items]

    def sample_size(self) -> int:
        """Current size of the window sample."""
        return int(self.sample_ids().shape[0])
