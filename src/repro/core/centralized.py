"""Centralized gathering baseline (paper Section 4.5).

To highlight the importance of communication efficiency, the paper compares
against a more centralized approach, which can be seen as an adaptation of
Jayaram et al.'s coordinator-based algorithm to the mini-batch model:

1. **insert** — every PE filters its local batch with the current global
   threshold exactly like Algorithm 1 does, but buffers the surviving
   candidates in a plain array instead of a search tree (in the very first
   batch a PE keeps only its ``k`` smallest keys);
2. **gather** — all candidate (key, id) pairs are gathered at a designated
   root PE;
3. **select** — the root merges the candidates into its reservoir and uses a
   standard sequential selection (quickselect) to keep the ``k`` smallest;
4. **threshold** — the root broadcasts the new threshold.

The reservoir lives solely at the root, whose gather volume and sequential
selection work grow with ``k`` and ``p`` — which is exactly why this
algorithm stops scaling for large sample sizes (Figures 3, 4 and 6 of the
paper).

Like the distributed sampler, the per-PE local filtering runs through the
communicator's PE-state layer (kernels from
:mod:`repro.core.pe_kernels`), so the same code executes inline under
:class:`~repro.network.communicator.SimComm` and in real worker processes
under :class:`~repro.network.process_comm.ProcessComm`.  The root reservoir
is kept coordinator-side, which models the root PE's memory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import pe_kernels
from repro.core.store import ReservoirStore, make_store, normalize_store_name
from repro.network.base import Communicator
from repro.runtime.clock import PhaseClock
from repro.runtime.machine import MachineSpec
from repro.runtime.metrics import PhaseTimes, RoundMetrics
from repro.stream.items import ItemBatch
from repro.stream.shard import make_shard_specs
from repro.utils.rng import spawn_seed_sequences
from repro.utils.validation import check_positive_int

__all__ = ["CentralizedGatherSampler"]


class CentralizedGatherSampler:
    """Mini-batch reservoir sampling with a gathering coordinator ("gather")."""

    algorithm_name = "gather"

    def __init__(
        self,
        k: int,
        comm: Communicator,
        *,
        machine: Optional[MachineSpec] = None,
        weighted: bool = True,
        root: int = 0,
        store: str = "merge",
        seed: Optional[int] = 0,
        kernel_tier: str = "numpy",
    ) -> None:
        import functools

        from repro.core.jit_kernels import resolve_kernel_tier

        self.k = check_positive_int(k, "k")
        self.comm = comm
        self.machine = machine if machine is not None else MachineSpec.forhlr_like()
        self.weighted = bool(weighted)
        self.root = comm.topology.validate_rank(root)
        self.store = normalize_store_name(store)
        # resolved before worker creation: "jit" without numba fails here
        self.kernel_tier = resolve_kernel_tier(kernel_tier)
        seed_seqs = spawn_seed_sequences(seed, comm.p)
        self._handle = comm.create_pe_state(
            functools.partial(pe_kernels.make_centralized_state, kernel_tier=self.kernel_tier),
            per_pe_args=[(ss,) for ss in seed_seqs],
        )
        self._has_worker_stream = False
        # Reservoir at the root, behind the pluggable store protocol (the
        # merge store reproduces the historic plain-sorted-array behaviour).
        self._reservoir: ReservoirStore = make_store(self.store, kernel_tier=self.kernel_tier)
        self.threshold: Optional[float] = None
        self._items_seen = 0
        self._total_weight = 0.0
        self._round = 0

    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        return self.comm.p

    @property
    def items_seen(self) -> int:
        return self._items_seen

    @property
    def total_weight(self) -> float:
        return self._total_weight

    @property
    def rounds_processed(self) -> int:
        return self._round

    def sample_size(self) -> int:
        return len(self._reservoir)

    def sample_ids(self) -> np.ndarray:
        """Item ids of the current sample (held at the root)."""
        return self._reservoir.ids_array()

    def sample_items(self) -> List[Tuple[int, float]]:
        """The current sample as ``(item id, key)`` pairs."""
        return [(item_id, key) for key, item_id in self._reservoir.items()]

    def preload(
        self,
        per_pe_items: Sequence[Sequence[Tuple[float, int]]],
        *,
        items_seen: int,
        total_weight: float,
        threshold: Optional[float],
    ) -> None:
        """Install a pre-computed sampler state (steady-state warm start).

        The centralized algorithm keeps the whole reservoir at the root, so
        the per-PE item lists are simply merged there.  See
        :meth:`repro.core.distributed.DistributedReservoirSampler.preload`.
        """
        if self._items_seen:
            raise RuntimeError("preload is only valid on a fresh sampler")
        keys: List[float] = []
        ids: List[int] = []
        for items in per_pe_items:
            for key, item_id in items:
                keys.append(float(key))
                ids.append(int(item_id))
        self._reservoir.insert_batch(
            np.asarray(keys, dtype=np.float64), np.asarray(ids, dtype=np.int64)
        )
        self._items_seen = int(items_seen)
        self._total_weight = float(total_weight)
        self.threshold = float(threshold) if threshold is not None else None

    def attach_worker_stream(
        self,
        batch_size: int,
        *,
        seed: Optional[int] = 0,
        variable: bool = False,
    ) -> None:
        """Install a worker-local stream shard on every PE.

        See
        :meth:`repro.core.distributed.DistributedReservoirSampler.attach_worker_stream`.
        """
        specs = make_shard_specs(self.p, batch_size, seed=seed, variable=variable)
        self.comm.run_per_pe(
            self._handle, pe_kernels.install_stream_kernel, [(spec,) for spec in specs]
        )
        self._has_worker_stream = True

    # ------------------------------------------------------------------
    def process_round(self, batches: Sequence[ItemBatch]) -> RoundMetrics:
        """Process one mini-batch round (one batch per PE)."""
        if len(batches) != self.p:
            raise ValueError(f"expected {self.p} batches (one per PE), got {len(batches)}")
        clock = PhaseClock(self.p)
        phase_comm_before = self.comm.ledger.time_by_phase()

        # ---------------- insert (local filtering, in the workers) --------
        with self.comm.phase("insert"):
            results = self.comm.run_per_pe(
                self._handle,
                pe_kernels.centralized_candidates_kernel,
                [
                    (batch.ids, batch.weights, self.threshold, self.weighted, self.k)
                    for batch in batches
                ],
            )
        batch_sizes = [len(batch) for batch in batches]
        candidate_keys, candidate_ids = self._charge_insert_work(clock, results, batch_sizes)
        batch_items = sum(batch_sizes)
        self._items_seen += batch_items
        self._total_weight += sum(batch.total_weight for batch in batches)
        return self._finish_round(
            clock, phase_comm_before, batch_items, candidate_keys, candidate_ids
        )

    def process_stream_round(self) -> RoundMetrics:
        """Process one round whose batches are generated worker-locally."""
        if not self._has_worker_stream:
            raise RuntimeError("no worker stream attached; call attach_worker_stream() first")
        clock = PhaseClock(self.p)
        phase_comm_before = self.comm.ledger.time_by_phase()

        with self.comm.phase("insert"):
            results = self.comm.run_per_pe(
                self._handle,
                pe_kernels.centralized_stream_candidates_kernel,
                [(self.threshold, self.weighted, self.k)] * self.p,
            )
        batch_sizes = [r[2] for r in results]
        candidate_keys, candidate_ids = self._charge_insert_work(
            clock, [r[:2] for r in results], batch_sizes
        )
        batch_items = sum(batch_sizes)
        self._items_seen += batch_items
        self._total_weight += sum(r[3] for r in results)
        return self._finish_round(
            clock, phase_comm_before, batch_items, candidate_keys, candidate_ids
        )

    # ------------------------------------------------------------------
    def _charge_insert_work(
        self,
        clock: PhaseClock,
        results: Sequence[Tuple[np.ndarray, np.ndarray]],
        batch_sizes: Sequence[int],
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        candidate_keys: List[np.ndarray] = []
        candidate_ids: List[np.ndarray] = []
        for pe, ((keys, ids), b) in enumerate(zip(results, batch_sizes)):
            candidate_keys.append(np.asarray(keys, dtype=np.float64))
            candidate_ids.append(np.asarray(ids, dtype=np.int64))
            if b == 0:
                continue
            if self.weighted:
                scan = self.machine.scan_time(b, batch_size=b)
            else:
                scan = self.machine.scan_time(len(keys), batch_size=b)
            key_gens = b if self.threshold is None else 2 * len(keys) + 1
            clock.charge(
                "insert",
                pe,
                scan + self.machine.key_gen_time(key_gens) + self.machine.array_append_time(len(keys)),
            )
        return candidate_keys, candidate_ids

    def _finish_round(
        self,
        clock: PhaseClock,
        phase_comm_before: Dict[str, float],
        batch_items: int,
        candidate_keys: List[np.ndarray],
        candidate_ids: List[np.ndarray],
    ) -> RoundMetrics:
        # ---------------- gather ----------------
        payloads = [
            np.stack([candidate_keys[pe], candidate_ids[pe].astype(np.float64)], axis=1)
            for pe in range(self.p)
        ]
        with self.comm.phase("gather"):
            gathered = self.comm.gather(
                payloads,
                root=self.root,
                words_per_pe=[float(2 * candidate_keys[pe].shape[0]) for pe in range(self.p)],
            )
        candidates_gathered = int(sum(candidate_keys[pe].shape[0] for pe in range(self.p)))

        # ---------------- select (sequential, at the root) ----------------
        new_keys = np.concatenate([np.asarray(g[:, 0]) for g in gathered])
        new_ids = np.concatenate([np.asarray(g[:, 1]).astype(np.int64) for g in gathered])
        merged = len(self._reservoir) + int(new_keys.shape[0])
        self._reservoir.insert_batch(new_keys, new_ids, capacity=self.k)
        clock.charge("select", self.root, self.machine.sequential_select_time(merged))

        # ---------------- threshold (broadcast) ----------------
        new_threshold: Optional[float] = None
        if len(self._reservoir) >= self.k:
            new_threshold = self._reservoir.max_key()
        with self.comm.phase("threshold"):
            broadcast = self.comm.broadcast([new_threshold] * self.p, root=self.root, words=1.0)
        self.threshold = broadcast[0]

        self._round += 1
        phase_comm_after = self.comm.ledger.time_by_phase()
        phases = set(phase_comm_after) | set(clock.phases()) | set(phase_comm_before)
        phase_times: Dict[str, PhaseTimes] = {}
        for phase in phases:
            comm_delta = phase_comm_after.get(phase, 0.0) - phase_comm_before.get(phase, 0.0)
            local = clock.max_time(phase)
            if comm_delta > 0.0 or local > 0.0:
                phase_times[phase] = PhaseTimes(local=local, comm=comm_delta)
        insertions = [int(candidate_keys[pe].shape[0]) for pe in range(self.p)]
        return RoundMetrics(
            round_index=self._round - 1,
            batch_items=batch_items,
            items_seen_total=self._items_seen,
            sample_size=self.sample_size(),
            threshold=self.threshold,
            phase_times=phase_times,
            insertions_per_pe=insertions,
            candidates_gathered=candidates_gathered,
            selection_stats=None,
            selection_ran=len(self._reservoir) >= self.k,
        )
