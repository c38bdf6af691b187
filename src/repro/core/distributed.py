"""The fully distributed mini-batch reservoir sampler (paper Algorithm 1).

Every PE keeps the candidate items it has seen in a local reservoir
(:class:`~repro.core.local_reservoir.LocalReservoir`).  A *global insertion
threshold* ``T`` — the key of the globally ``k``-th smallest candidate — is
known to all PEs and stays fixed while a mini-batch is processed:

1. **insert** — each PE runs the exponential-jumps (or geometric-jumps)
   traversal of its local batch under ``T`` and inserts the surviving
   candidates into its local reservoir;
2. **select** — the PEs jointly select the key with global rank ``k`` over
   the union of the local reservoirs using a communication-efficient
   selection algorithm (Section 3.3);
3. **threshold** — the selected key is established as the new ``T`` via an
   all-reduction and every PE prunes its local reservoir with a ``splitAt``.

Steps 2 and 3 are skipped when they cannot change anything: if ``T`` is
already the largest of exactly ``k`` keys and the all-reduced candidate
count is still ``k``, no PE inserted anything and ``T`` stays.  Once
``n >> k`` most rounds are such no-insert rounds, which then cost the
insert kernels plus one SUM all-reduction.

The union of the local reservoirs is then a weighted (or uniform) sample
without replacement of size ``min(k, n)`` of everything seen so far.  No PE
plays a special role.

The implementation is SPMD-style against the
:class:`~repro.network.base.Communicator` protocol: per-PE state (local
reservoir + random generator) lives behind the communicator's PE-state
layer and all local work runs as kernels from
:mod:`repro.core.pe_kernels`.  Under
:class:`~repro.network.communicator.SimComm` the kernels run inline and
communication is cost-accounted under the paper's machine model; under
:class:`~repro.network.process_comm.ProcessComm` each PE is a real worker
process, kernels run in parallel, and the same seed yields byte-identical
samples (the equivalence tests enforce this).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import pe_kernels
from repro.core.local_reservoir import LocalReservoir, LocalThresholdPolicy
from repro.core.store import normalize_store_name
from repro.network.base import Communicator, PEStateHandle
from repro.runtime.clock import PhaseClock
from repro.runtime.machine import MachineSpec
from repro.runtime.metrics import PhaseTimes, RoundMetrics
from repro.selection.base import DistributedKeySet, SelectionAlgorithm, SelectionResult
from repro.selection.bernoulli_pivot import SinglePivotSelection
from repro.selection.engine import OrderStatisticsEngine, ThresholdUpdate
from repro.stream.items import ItemBatch
from repro.stream.shard import make_shard_specs
from repro.utils.rng import spawn_seed_sequences
from repro.utils.validation import check_positive_int

__all__ = [
    "ReservoirKeySet",
    "CommBackedKeySet",
    "DistributedReservoirSampler",
    "DistributedWeightedReservoirSampler",
    "DistributedUniformReservoirSampler",
]


def charge_selection_work(
    clock: PhaseClock,
    machine: MachineSpec,
    selection: SelectionAlgorithm,
    result: SelectionResult,
    sizes: Sequence[int],
) -> None:
    """Charge the local part of a distributed selection to the clock.

    Per pivot round: one Bernoulli sample draw plus ``pivots`` rank
    queries and ``pivots`` select queries on the local reservoir.  Shared
    by the unbounded and the sliding-window samplers so the cost model
    stays comparable across workloads.
    """
    stats = result.stats
    pivots = max(int(getattr(selection, "num_pivots", 1)), 1)
    for pe, size in enumerate(sizes):
        ops = stats.recursion_depth * (2 * pivots + 1)
        clock.charge("select", pe, machine.tree_op_time(ops, max(int(size), 1)))
    if stats.final_gather_items:
        clock.charge("select", 0, machine.sequential_select_time(stats.final_gather_items))


def collect_phase_times(
    clock: PhaseClock,
    phase_comm_before: Dict[str, float],
    phase_comm_after: Dict[str, float],
) -> Dict[str, PhaseTimes]:
    """Assemble per-phase local/comm times from the clock and ledger deltas."""
    phases = set(phase_comm_after) | set(clock.phases()) | set(phase_comm_before)
    phase_times: Dict[str, PhaseTimes] = {}
    for phase in phases:
        comm_delta = phase_comm_after.get(phase, 0.0) - phase_comm_before.get(phase, 0.0)
        local = clock.max_time(phase)
        if comm_delta > 0.0 or local > 0.0:
            phase_times[phase] = PhaseTimes(local=local, comm=comm_delta)
    return phase_times


class ReservoirKeySet(DistributedKeySet):
    """Adapter exposing a list of local reservoirs as a distributed key set.

    Used by callers that hold the reservoir objects directly (e.g. the bulk
    priority queue and the selection tests).  The sampler itself uses
    :class:`CommBackedKeySet`, which reaches the reservoirs through the
    communicator so the same code works when they live in worker processes.
    """

    def __init__(self, reservoirs: Sequence[LocalReservoir]) -> None:
        if not reservoirs:
            raise ValueError("at least one reservoir is required")
        self._reservoirs = list(reservoirs)

    @property
    def p(self) -> int:
        return len(self._reservoirs)

    def local_size(self, pe: int) -> int:
        return len(self._reservoirs[pe])

    def count_le(self, pe: int, key: float) -> int:
        return self._reservoirs[pe].count_le(key)

    def count_less(self, pe: int, key: float) -> int:
        return self._reservoirs[pe].count_less(key)

    def select_local(self, pe: int, rank: int) -> float:
        return self._reservoirs[pe].kth_key(rank)

    def select_local_many(self, pe: int, ranks: np.ndarray) -> np.ndarray:
        return self._reservoirs[pe].kth_keys(ranks)

    def keys_in_rank_range(self, pe: int, lo: int, hi: int) -> np.ndarray:
        return self._reservoirs[pe].keys_in_rank_range(lo, hi)


class CommBackedKeySet(DistributedKeySet):
    """Key-set view over reservoirs held behind a communicator's PE states.

    The per-PE point queries dispatch to a single PE; the batched all-PE
    operations dispatch one kernel to every PE at once, so a selection
    round costs a constant number of coordinator↔worker round trips under
    the multiprocess backend.  The pivot proposals consume the *worker*
    random generators (the ``rngs`` argument is ignored), which keeps the
    random stream identical across execution backends.
    """

    def __init__(self, comm: Communicator, handle: PEStateHandle) -> None:
        self._comm = comm
        self._handle = handle

    @property
    def p(self) -> int:
        return self._comm.p

    # -- per-PE point queries ------------------------------------------------
    def local_size(self, pe: int) -> int:
        return self._comm.run_on_pe(self._handle, pe, pe_kernels.local_size_kernel)

    def count_le(self, pe: int, key: float) -> int:
        return self._comm.run_on_pe(self._handle, pe, pe_kernels.count_le_kernel, float(key))

    def count_less(self, pe: int, key: float) -> int:
        return self._comm.run_on_pe(self._handle, pe, pe_kernels.count_less_kernel, float(key))

    def select_local(self, pe: int, rank: int) -> float:
        return self._comm.run_on_pe(self._handle, pe, pe_kernels.kth_key_kernel, int(rank))

    def select_local_many(self, pe: int, ranks: np.ndarray) -> np.ndarray:
        return self._comm.run_on_pe(
            self._handle, pe, pe_kernels.kth_keys_kernel, np.asarray(ranks, dtype=np.int64)
        )

    def keys_in_rank_range(self, pe: int, lo: int, hi: int) -> np.ndarray:
        return self._comm.run_on_pe(self._handle, pe, pe_kernels.range_keys_kernel, int(lo), int(hi))

    # -- batched all-PE operations ------------------------------------------
    def local_sizes(self) -> List[int]:
        return self._comm.run_per_pe(self._handle, pe_kernels.local_size_kernel)

    def count_le_all(self, key: float) -> List[int]:
        return self._comm.run_per_pe(
            self._handle, pe_kernels.count_le_kernel, [(float(key),)] * self.p
        )

    def local_maxes(self) -> List[float]:
        return self._comm.run_per_pe(self._handle, pe_kernels.max_key_kernel)

    def window_counts_all(
        self, pivots: np.ndarray, lo: Sequence[int], hi: Sequence[int]
    ) -> List[np.ndarray]:
        pivots = np.asarray(pivots, dtype=np.float64)
        return self._comm.run_per_pe(
            self._handle,
            pe_kernels.window_counts_kernel,
            [(pivots, int(lo[pe]), int(hi[pe])) for pe in range(self.p)],
        )

    def propose_all(
        self,
        lo: Sequence[int],
        hi: Sequence[int],
        prob: float,
        d: int,
        from_below: bool,
        rngs: Sequence[np.random.Generator],
    ) -> List[np.ndarray]:
        del rngs  # the worker-held per-PE generators are used instead
        return self._comm.run_per_pe(
            self._handle,
            pe_kernels.propose_pivots_kernel,
            [
                (int(lo[pe]), int(hi[pe]), float(prob), int(d), bool(from_below))
                for pe in range(self.p)
            ],
        )

    def window_keys_all(self, lo: Sequence[int], hi: Sequence[int]) -> List[np.ndarray]:
        return self._comm.run_per_pe(
            self._handle,
            pe_kernels.range_keys_kernel,
            [(int(lo[pe]), int(hi[pe])) for pe in range(self.p)],
        )


class DistributedReservoirSampler:
    """Algorithm 1: distributed weighted/uniform reservoir sampling.

    Parameters
    ----------
    k:
        Sample size.
    comm:
        Communicator over the ``p`` PEs — the simulated backend
        (:class:`~repro.network.communicator.SimComm`) or the real
        multiprocess backend
        (:class:`~repro.network.process_comm.ProcessComm`).
    selection:
        Distributed selection algorithm used to re-establish the threshold;
        defaults to the single-pivot general-case algorithm ("ours").
    machine:
        Machine model used to charge simulated local-work time.
    weighted:
        ``True`` for weighted sampling (exponential keys/jumps), ``False``
        for uniform sampling (uniform keys, geometric jumps).
    store:
        Local reservoir store backend, ``"merge"`` (vectorized sorted-array
        merge store, default) or ``"btree"`` (paper's data structure).
    backend:
        Deprecated alias of ``store`` (kept for backwards compatibility;
        takes precedence when given).
    local_thresholding:
        Enable the Section-5 first-batch local-thresholding optimisation.
    seed:
        Seed from which the per-PE random streams are derived.
    kernel_tier:
        ``"numpy"`` (default), ``"jit"`` or ``"auto"`` — which
        implementation of the jump/merge hot loops the PEs run (see
        :mod:`repro.core.jit_kernels`).  Resolved here, before any worker
        process is created; samples are byte-identical across tiers.
    """

    algorithm_name = "ours"

    def __init__(
        self,
        k: int,
        comm: Communicator,
        *,
        selection: Optional[SelectionAlgorithm] = None,
        machine: Optional[MachineSpec] = None,
        weighted: bool = True,
        store: str = "merge",
        backend: Optional[str] = None,
        order: int = 16,
        local_thresholding: bool = True,
        seed: Optional[int] = 0,
        kernel_tier: str = "numpy",
    ) -> None:
        from repro.core.jit_kernels import resolve_kernel_tier

        self.k = check_positive_int(k, "k")
        self.comm = comm
        self.selection = selection if selection is not None else SinglePivotSelection()
        self.machine = machine if machine is not None else MachineSpec.forhlr_like()
        self.weighted = bool(weighted)
        self.store = normalize_store_name(backend if backend is not None else store)
        self.backend = self.store  # deprecated alias
        self.local_thresholding = bool(local_thresholding)
        # resolved before worker creation: "jit" without numba fails here
        self.kernel_tier = resolve_kernel_tier(kernel_tier)
        self._policy = LocalThresholdPolicy(self.k)
        seed_seqs = spawn_seed_sequences(seed, comm.p)
        self._handle = comm.create_pe_state(
            functools.partial(
                pe_kernels.make_pe_state,
                k=self.k,
                store=self.store,
                order=order,
                kernel_tier=self.kernel_tier,
            ),
            per_pe_args=[(ss,) for ss in seed_seqs],
        )
        self._has_worker_stream = False
        self.threshold: Optional[float] = None
        #: ``True`` while ``threshold`` is the largest key of a union of
        #: exactly ``k`` keys — then a round whose all-reduced total is
        #: still ``k`` inserted nothing and needs no tighten/prune
        self._threshold_settled = False
        self._items_seen = 0
        self._total_weight = 0.0
        self._round = 0

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
        """Total weight processed so far (all PEs)."""
        return self._total_weight

    @property
    def rounds_processed(self) -> int:
        return self._round

    @property
    def reservoirs(self) -> List[LocalReservoir]:
        """The local reservoir objects (simulated backend only).

        Under the multiprocess backend the reservoirs live inside the
        worker processes; use :meth:`sample_items` / :meth:`keyset` to
        inspect them instead.
        """
        return [
            self.comm.local_pe_state(self._handle, pe)["reservoir"] for pe in range(self.p)
        ]

    def sample_size(self) -> int:
        """Current size of the distributed sample (union of local reservoirs)."""
        return sum(self.comm.run_per_pe(self._handle, pe_kernels.local_size_kernel))

    def sample_items(self) -> List[Tuple[int, float]]:
        """The current sample as ``(item id, key)`` pairs (all PEs, unordered)."""
        out: List[Tuple[int, float]] = []
        for items in self.comm.run_per_pe(self._handle, pe_kernels.items_kernel):
            out.extend((item_id, key) for key, item_id in items)
        return out

    def sample_ids(self) -> np.ndarray:
        """The item ids of the current sample."""
        ids = self.comm.run_per_pe(self._handle, pe_kernels.item_ids_kernel)
        return np.concatenate(ids) if ids else np.empty(0, dtype=np.int64)

    def keyset(self) -> CommBackedKeySet:
        """A selection view over the current local reservoirs."""
        return CommBackedKeySet(self.comm, self._handle)

    def engine(self) -> OrderStatisticsEngine:
        """The order-statistics engine over the current local reservoirs.

        Each round's threshold re-establishment is one
        :meth:`~repro.selection.engine.OrderStatisticsEngine.threshold_update`
        call on this engine; the selection algorithm acts as its policy.
        """
        return OrderStatisticsEngine(self.keyset(), self.comm, policy=self.selection)

    def preload(
        self,
        per_pe_items: Sequence[Sequence[Tuple[float, int]]],
        *,
        items_seen: int,
        total_weight: float,
        threshold: Optional[float],
    ) -> None:
        """Install a pre-computed sampler state (steady-state warm start).

        ``per_pe_items`` holds, per PE, the (key, item id) pairs of its local
        reservoir.  ``items_seen``/``total_weight`` describe the stream that
        is considered to have been processed already, and ``threshold`` is
        the global insertion threshold in effect.  Used by the scaling
        experiments to start measurements in the steady state (``n >> k``)
        that the paper's 30-second runs operate in, without paying the cost
        of streaming ``n`` items through the simulator.
        """
        if len(per_pe_items) != self.p:
            raise ValueError(f"expected {self.p} per-PE item lists, got {len(per_pe_items)}")
        if self._items_seen:
            raise RuntimeError("preload is only valid on a fresh sampler")
        self.comm.run_per_pe(
            self._handle,
            pe_kernels.preload_kernel,
            [([(float(key), int(item_id)) for key, item_id in items],) for items in per_pe_items],
        )
        self._items_seen = int(items_seen)
        self._total_weight = float(total_weight)
        self.threshold = float(threshold) if threshold is not None else None
        # an arbitrary threshold need not be the union's max key
        self._threshold_settled = False

    def attach_worker_stream(
        self,
        batch_size: int,
        *,
        seed: Optional[int] = 0,
        variable: bool = False,
        id_offset: int = 0,
    ) -> None:
        """Install a worker-local stream shard on every PE.

        Subsequent :meth:`process_stream_round` calls generate each PE's
        batch *inside* that PE (in the worker process under the
        multiprocess backend) instead of shipping coordinator-built
        batches.  The shards replicate a constant-batch-size
        :class:`~repro.stream.minibatch.MiniBatchStream` exactly.

        ``variable=True`` allows the shards to be resized between rounds
        (adaptive mini-batch sizing, ``batch_size="auto"``; switches to
        interleaved item ids).  ``id_offset`` shifts every emitted id (elastic re-sharding starts
        a resharded stream past the ids the old shard layout emitted).
        """
        specs = make_shard_specs(
            self.p,
            batch_size,
            seed=seed,
            variable=variable,
            id_offset=id_offset,
        )
        self.comm.run_per_pe(
            self._handle, pe_kernels.install_stream_kernel, [(spec,) for spec in specs]
        )
        self._has_worker_stream = True

    # ------------------------------------------------------------------
    def process_round(self, batches: Sequence[ItemBatch]) -> RoundMetrics:
        """Process one mini-batch round (one batch per PE)."""
        if len(batches) != self.p:
            raise ValueError(f"expected {self.p} batches (one per PE), got {len(batches)}")
        return self._insert_round(
            pe_kernels.insert_batch_kernel,
            [
                (batch.ids, batch.weights, self.threshold, self.weighted, self.local_thresholding)
                for batch in batches
            ],
        )

    def process_stream_round(self) -> RoundMetrics:
        """Process one round whose batches are generated worker-locally.

        Requires :meth:`attach_worker_stream`.  Under the multiprocess
        backend both the batch generation and the ingestion run in
        parallel in the workers; this is the hot path of a
        :class:`~repro.core.api.DistributedSamplingRun` built without ``stream=``.
        """
        if not self._has_worker_stream:
            raise RuntimeError("no worker stream attached; call attach_worker_stream() first")
        return self._insert_round(
            pe_kernels.stream_insert_kernel,
            [(self.threshold, self.weighted, self.local_thresholding)] * self.p,
        )

    # ------------------------------------------------------------------
    # round phases
    # ------------------------------------------------------------------
    def _insert_round(self, kernel, per_pe_args: Sequence[tuple]) -> RoundMetrics:
        """One full round whose insert phase is ``kernel`` on every PE."""
        clock = PhaseClock(self.p)
        phase_comm_before = self.comm.ledger.time_by_phase()
        threshold_was_set = self.threshold is not None
        with self.comm.phase("insert"):
            results = self.comm.run_per_pe(self._handle, kernel, per_pe_args)
        batch_items, insertions, sizes = self._account_insert(clock, results, threshold_was_set)
        return self._finish_round(clock, phase_comm_before, batch_items, insertions, sizes)

    def _account_insert(
        self,
        clock: PhaseClock,
        results: Sequence[Tuple[int, int, int, int, float]],
        threshold_was_set: bool,
    ) -> Tuple[int, List[int], List[int]]:
        """Charge the insert phase from the insert kernels' results.

        ``results`` are the per-PE ``(inserted, pruned, size, batch_items,
        batch_weight)`` tuples; the batches are added to the items and
        weight seen.  Returns ``(batch_items, insertions, sizes)``: the
        round's item count, per-PE insertion counts and post-insert
        reservoir sizes.
        """
        insertions: List[int] = []
        sizes: List[int] = []
        for pe, (inserted, pruned, size, b, _weight) in enumerate(results):
            insertions.append(int(inserted))
            sizes.append(int(size))
            if b == 0:
                continue
            if not threshold_was_set:
                time = (
                    self.machine.scan_time(b, batch_size=b)
                    + self.machine.key_gen_time(b)
                    + self.machine.tree_op_time(inserted + pruned, max(size, 1))
                )
            else:
                if self.weighted:
                    scan_time = self.machine.scan_time(b, batch_size=b)
                else:
                    # Skipping items is O(1) per accepted item for uniform
                    # sampling (Corollary 4): only accepted items cost work.
                    scan_time = self.machine.scan_time(inserted, batch_size=b)
                time = (
                    scan_time
                    + self.machine.key_gen_time(2 * inserted + 1)
                    + self.machine.tree_op_time(inserted, max(size, 1))
                )
            clock.charge("insert", pe, time)
        batch_items = sum(int(r[3]) for r in results)
        self._items_seen += batch_items
        self._total_weight += sum(float(r[4]) for r in results)
        return batch_items, insertions, sizes

    def _finish_round(
        self,
        clock: PhaseClock,
        phase_comm_before: Dict[str, float],
        batch_items: int,
        insertions: List[int],
        sizes: List[int],
    ) -> RoundMetrics:
        """Select + threshold phases and metric assembly (shared by both
        round entry points)."""
        engine = self.engine()
        with self.comm.phase("select"):
            total_candidates = engine.global_size(sizes=sizes)
        update = self._update_threshold(engine, total_candidates)
        if update.result is not None:
            self._charge_selection_work(clock, update.result, sizes)
        if update.threshold is not None:
            # A ThresholdUpdate without a boundary (total below k, or a
            # settled threshold) leaves the previous threshold in place.
            self.threshold = update.threshold
            with self.comm.phase("threshold"):
                prune_results = self.comm.run_per_pe(
                    self._handle, pe_kernels.prune_kernel, [(self.threshold,)] * self.p
                )
            for pe, (size_before, size_after) in enumerate(prune_results):
                clock.charge("threshold", pe, self.machine.tree_op_time(2, size_before))
            sizes = [int(size_after) for _, size_after in prune_results]
            # the agreed key is one of the union's keys and the prune kept
            # exactly the keys at or below it, so it is the union's max
            self._threshold_settled = sum(sizes) == self.k
        else:
            # settled stays settled only while nothing was inserted
            self._threshold_settled = self._threshold_settled and total_candidates == self.k

        self._round += 1
        return self._build_metrics(
            clock,
            phase_comm_before,
            batch_items=batch_items,
            insertions=insertions,
            sample_size=sum(sizes),
            selection_result=update.result,
            selection_ran=update.selection_ran,
        )

    # ------------------------------------------------------------------
    # threshold re-establishment (overridden by the variable-size sampler)
    # ------------------------------------------------------------------
    def _update_threshold(self, engine: OrderStatisticsEngine, total: int) -> ThresholdUpdate:
        """Re-establish the global threshold: one engine call.

        Selection runs when the candidate count exceeds ``k``; at exactly
        ``k`` the engine tightens the boundary to the global max key with a
        single all-reduction.  The comm-backed keyset draws pivot proposals
        from the worker-held per-PE generators, so no driver-side generator
        is involved.

        A settled threshold is already the max key of exactly ``k`` keys.
        The insert phase only adds keys, so a total of ``k`` means no PE
        inserted anything: the union and its max are unchanged, and
        tightening would agree on the same threshold and prune nothing.
        Such a round keeps the threshold without calling the engine.  The
        decision reads only the all-reduced ``total`` and driver state, so
        it is the same on every backend.
        """
        if self._threshold_settled and total == self.k:
            return ThresholdUpdate(threshold=None, total=total, action="none")
        return engine.threshold_update(self.k, total=total)

    def _charge_selection_work(
        self, clock: PhaseClock, result: SelectionResult, sizes: Sequence[int]
    ) -> None:
        charge_selection_work(clock, self.machine, self.selection, result, sizes)

    # ------------------------------------------------------------------
    def _build_metrics(
        self,
        clock: PhaseClock,
        phase_comm_before: Dict[str, float],
        *,
        batch_items: int,
        insertions: List[int],
        sample_size: int,
        selection_result: Optional[SelectionResult],
        selection_ran: bool,
    ) -> RoundMetrics:
        phase_times = collect_phase_times(
            clock, phase_comm_before, self.comm.ledger.time_by_phase()
        )
        return RoundMetrics(
            round_index=self._round - 1,
            batch_items=batch_items,
            items_seen_total=self._items_seen,
            sample_size=sample_size,
            threshold=self.threshold,
            phase_times=phase_times,
            insertions_per_pe=list(insertions),
            selection_stats=selection_result.stats if selection_result is not None else None,
            selection_ran=selection_ran,
        )


class DistributedWeightedReservoirSampler(DistributedReservoirSampler):
    """Weighted instantiation of Algorithm 1 (exponential keys and jumps)."""

    algorithm_name = "ours"

    def __init__(self, k: int, comm: Communicator, **kwargs) -> None:
        kwargs.setdefault("weighted", True)
        super().__init__(k, comm, **kwargs)


class DistributedUniformReservoirSampler(DistributedReservoirSampler):
    """Uniform (unweighted) instantiation (Section 4.3, geometric jumps)."""

    algorithm_name = "ours-uniform"

    def __init__(self, k: int, comm: Communicator, **kwargs) -> None:
        kwargs.setdefault("weighted", False)
        super().__init__(k, comm, **kwargs)
