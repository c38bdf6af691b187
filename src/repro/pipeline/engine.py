"""Double-buffered round engines: overlap next-round preparation with selection.

The lock-step round of :class:`~repro.core.distributed.DistributedReservoirSampler`
serialises *insert* (batch generation, key generation, reservoir
insertions) with *select/threshold* (the coordinator-driven collectives).
The paper's remarks on asynchrony observe that this serialisation is not
necessary: with a slightly stale threshold the PEs can keep preparing the
next mini-batch while the previous round's selection finishes, trading a
bounded number of extra buffered candidates for full overlap of
computation and communication.

The engines here implement that trade in three flavours:

* :class:`UnboundedPipelineEngine` with ``mode="strict"`` — only the
  threshold-*independent* work (materialising the next shard batch) runs
  ahead, in a worker background thread, while the current round's
  selection executes; key generation stays synchronous under the fresh
  threshold and consumes the main per-PE RNG in exactly the lock-step
  order.  Strict runs are therefore **byte-identical** to
  lock-step :class:`~repro.core.api.DistributedSamplingRun` rounds for the same seed
  (enforced by ``tests/pipeline/``).
* ``mode="relaxed"`` — the whole prepare (batch + exponential-jump key
  generation) runs ahead under the threshold of the *previous* round.
  Because the global threshold only ever tightens, the prepared candidate
  set is a superset of the strict run's; the extra candidates are pruned
  again at ingest time (the *reconciliation prune*, counted as
  ``stale_extra_candidates``).  Keys come from a dedicated generation RNG
  so the background draws never race the selection's pivot proposals —
  relaxed runs are deterministic (and backend-equivalent), just not
  byte-identical to the lock-step schedule.
* :class:`WindowPipelineEngine` — the sliding-window sampler admits no
  insertion threshold (keys are dense), so its prepare is never stale and
  windowed pipelining is exact by construction; the prepare overlaps the
  expire + re-selection phases.

Overlap is real on the multiprocess backend — the prepare kernels run in
worker background threads dispatched via
:meth:`~repro.network.base.Communicator.run_per_pe_async` while the worker
main loops serve the selection collectives — and *modeled* on the
simulated backend, where a pipelined round costs
``insert + max(prepare, select + threshold)`` instead of the lock-step
sum.  Either way every round reports the hidden time as
:attr:`~repro.runtime.metrics.RoundMetrics.overlap_saved_time` and the
unhidden remainder as the ``"overlap"`` phase.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core import pe_kernels
from repro.core.distributed import DistributedReservoirSampler
from repro.network.base import PerPEFuture
from repro.runtime.clock import PhaseClock
from repro.runtime.metrics import PhaseTimes, RoundMetrics
from repro.window.distributed import DistributedWindowSampler

__all__ = [
    "PIPELINE_MODES",
    "normalize_pipeline_mode",
    "UnboundedPipelineEngine",
    "WindowPipelineEngine",
    "make_pipeline_engine",
]

#: accepted values of the ``pipeline=`` argument on the drivers
PIPELINE_MODES = ("off", "strict", "relaxed")


def normalize_pipeline_mode(mode: str) -> str:
    """Validate and canonicalise a ``pipeline=`` argument."""
    name = str(mode).strip().lower()
    if name not in PIPELINE_MODES:
        raise ValueError(f"unknown pipeline mode {mode!r}; expected one of {PIPELINE_MODES}")
    return name


class _PipelineEngineBase:
    """Shared double-buffering machinery of the pipelined round engines."""

    def __init__(self, sampler) -> None:
        self.sampler = sampler
        self._pending: Optional[PerPEFuture] = None
        self._requested_batch_size: Optional[int] = None
        self._rounds = 0

    # ------------------------------------------------------------------
    @property
    def comm(self):
        return self.sampler.comm

    @property
    def p(self) -> int:
        return self.sampler.p

    @property
    def rounds_processed(self) -> int:
        return self._rounds

    def request_batch_size(self, batch_size: int) -> None:
        """Resize the stream shards before the next prepare dispatch.

        Deferred rather than applied immediately because the shards must
        not be touched while a prepare is in flight.
        """
        self._requested_batch_size = int(batch_size)

    def _apply_batch_size_change(self) -> None:
        """Apply a deferred resize; only valid while no prepare is in flight.

        The in-flight guard makes the join-before-resize ordering an
        enforced invariant rather than a convention: dispatching the resize
        kernel while a background prefetch is still generating would race
        the shard's ``_batch_size``/``_emitted`` bookkeeping (the shard's
        own lock would serialise the mutation, but the round's batch size
        would become schedule-dependent — join first, then resize).
        """
        if self._requested_batch_size is None:
            return
        if self._pending is not None:
            raise RuntimeError(
                "cannot resize stream shards while a prepare is in flight; "
                "join the pending prepare before applying the batch size"
            )
        self.comm.run_per_pe(
            self.sampler._handle,
            pe_kernels.set_batch_size_kernel,
            [(self._requested_batch_size,)] * self.p,
        )
        self._requested_batch_size = None

    def finish(self) -> None:
        """Drop an in-flight prepare (stream items it consumed stay unused)."""
        if self._pending is not None:
            pending, self._pending = self._pending, None
            try:
                pending.wait()
            except Exception:  # pragma: no cover - teardown best effort
                pass

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Capture the engine's state for a checkpoint, draining any prepare.

        If a prepare/prefetch future is pending it is joined *now* and
        replaced, on the live engine, by an already-completed future
        holding the same results — the prepared data itself lives in the
        worker states and is captured by the per-PE export that follows,
        so the continued run and a resumed run stay in lock step.  Call
        this BEFORE exporting the per-PE sampler state.
        """
        pending_results = None
        if self._pending is not None:
            pending_results = self._pending.wait()
            self._pending = PerPEFuture(list(pending_results))
        return {
            "mode": self.mode,
            "rounds": self._rounds,
            "requested_batch_size": self._requested_batch_size,
            "pending_results": pending_results,
        }

    def import_state(self, state: dict) -> None:
        """Re-arm a freshly built engine from an :meth:`export_state` capture.

        The mode must match; a pending prepare captured in the state is
        re-armed as an already-completed future, mirroring what
        :meth:`export_state` left on the original engine.
        """
        if state["mode"] != self.mode:
            raise ValueError(
                f"engine state was captured in pipeline mode {state['mode']!r} but this "
                f"engine runs {self.mode!r}"
            )
        self._rounds = int(state["rounds"])
        requested = state.get("requested_batch_size")
        self._requested_batch_size = None if requested is None else int(requested)
        pending = state.get("pending_results")
        self._pending = PerPEFuture(list(pending)) if pending is not None else None

    def _join_pending(self) -> Tuple[List[object], float, bool]:
        """Wait for the in-flight prepare; returns (results, wait, was_async)."""
        pending = self._pending
        self._pending = None
        with self.comm.phase("overlap"):
            results = pending.wait()
        return results, pending.wait_time, pending.asynchronous

    def _attach_overlap(
        self,
        metrics: RoundMetrics,
        *,
        busy_measured: float,
        wait_time: float,
        was_async: bool,
        overlapped_phases: Sequence[str],
    ) -> None:
        """Fill in the per-round overlap-efficiency counters.

        On the multiprocess backend the saving is *measured*: the prepare
        kernels report their own busy time and the join reports how long
        the coordinator actually had to wait — the difference ran hidden.
        The ``"prepare"`` phase's local time is then replaced with that
        measured busy time so saved/prepare ratios
        (:meth:`~repro.runtime.metrics.RunMetrics.overlap_efficiency`)
        compare measured seconds with measured seconds, like the measured
        ``"overlap"`` wait already in the ledger.  On the simulated
        backend the saving is *modeled*: the prepare's machine-model cost
        overlaps the phases it was dispatched against, so the round pays
        ``max(prepare, overlapped)`` instead of the sum and the unhidden
        remainder surfaces as the ``"overlap"`` phase.
        """
        if was_async:
            current = metrics.phase_times.get("prepare", PhaseTimes())
            metrics.phase_times["prepare"] = PhaseTimes(local=busy_measured, comm=current.comm)
            metrics.overlap_saved_time = max(0.0, busy_measured - wait_time)
            self.comm.tracer.instant(
                "overlap.join",
                cat="pipeline",
                busy=busy_measured,
                wait=wait_time,
                saved=metrics.overlap_saved_time,
            )
            return
        prepare_pt = metrics.phase_times.get("prepare")
        prepare_local = prepare_pt.local if prepare_pt is not None else 0.0
        window = sum(metrics.phase_total(phase) for phase in overlapped_phases)
        saved = min(prepare_local, window)
        unhidden = prepare_local - saved
        if unhidden > 0.0:
            current = metrics.phase_times.get("overlap", PhaseTimes())
            metrics.phase_times["overlap"] = PhaseTimes(
                local=current.local + unhidden, comm=current.comm
            )
        metrics.overlap_saved_time = saved


class UnboundedPipelineEngine(_PipelineEngineBase):
    """Pipelined rounds for the unbounded distributed reservoir samplers.

    Drives a :class:`~repro.core.distributed.DistributedReservoirSampler`
    (or its variable-size subclass) whose worker stream shards are already
    attached.  Rounds before the first global threshold run through the
    lock-step path unchanged — the pipeline engages once a threshold
    exists, which is also what keeps the strict mode byte-identical from
    the very first round.
    """

    def __init__(self, sampler: DistributedReservoirSampler, mode: str) -> None:
        super().__init__(sampler)
        mode = normalize_pipeline_mode(mode)
        if mode == "off":
            raise ValueError("pipeline mode 'off' does not need an engine")
        if not getattr(sampler, "_has_worker_stream", False):
            raise ValueError(
                "pipelined rounds need worker-local stream shards; call "
                "sampler.attach_worker_stream() first"
            )
        self.mode = mode

    # ------------------------------------------------------------------
    def step(self) -> RoundMetrics:
        """Process one round, overlapping next-round preparation."""
        sampler = self.sampler
        if sampler.threshold is None:
            # No threshold yet (warm-up): nothing threshold-dependent can
            # be prepared ahead under the first-batch policy, so run the
            # lock-step round.  This is exactly the sync path, keeping the
            # strict mode byte-identical through the bootstrap.
            self._apply_batch_size_change()
            metrics = sampler.process_stream_round()
            self._rounds += 1
            return metrics
        metrics = self._strict_round() if self.mode == "strict" else self._relaxed_round()
        self._rounds += 1
        return metrics

    # ------------------------------------------------------------------
    def _strict_round(self) -> RoundMetrics:
        """Overlap only the batch materialisation; keys stay synchronous.

        The RNG consumption order is exactly the lock-step one: the shard
        prefetch only advances the shard's own generator (whose values do
        not depend on *when* they are drawn), while key generation runs
        inside :func:`~repro.core.pe_kernels.stream_insert_kernel` under
        the fresh threshold, after the previous round's pivot proposals.
        """
        sampler = self.sampler
        comm = self.comm
        clock = PhaseClock(self.p)
        phase_comm_before = comm.ledger.time_by_phase()

        busy = 0.0
        wait_time = 0.0
        was_async = False
        if self._pending is not None:
            prefetch_results, wait_time, was_async = self._join_pending()
            busy = max(float(r[1]) for r in prefetch_results)
        # insert: the lock-step kernel consumes the prefetched batch
        with comm.phase("insert"):
            results = comm.run_per_pe(
                sampler._handle,
                pe_kernels.stream_insert_kernel,
                [(sampler.threshold, sampler.weighted, sampler.local_thresholding)] * self.p,
            )
        batch_items, insertions, sizes = sampler._account_insert(
            clock, results, threshold_was_set=True
        )
        for pe, r in enumerate(results):
            clock.charge("prepare", pe, sampler.machine.key_gen_time(max(int(r[3]), 1)))

        # prefetch the next batch; runs while the selection below executes
        self._apply_batch_size_change()
        with comm.phase("prepare"):
            self._pending = comm.run_per_pe_async(
                sampler._handle, pe_kernels.prefetch_stream_kernel
            )

        metrics = sampler._finish_round(
            clock, phase_comm_before, batch_items, insertions, sizes
        )
        self._attach_overlap(
            metrics,
            busy_measured=busy,
            wait_time=wait_time,
            was_async=was_async,
            overlapped_phases=("select", "threshold"),
        )
        return metrics

    def _relaxed_round(self) -> RoundMetrics:
        """Overlap batch *and* key generation under a one-round-stale threshold."""
        sampler = self.sampler
        comm = self.comm
        clock = PhaseClock(self.p)
        phase_comm_before = comm.ledger.time_by_phase()

        if self._pending is None:
            # transition round: nothing in flight yet — prepare now and pay
            # the full cost once; subsequent rounds overlap
            self._dispatch_prepare()
        prep, wait_time, was_async = self._join_pending()

        with comm.phase("insert"):
            results = comm.run_per_pe(
                sampler._handle, pe_kernels.ingest_prepared_kernel, [(sampler.threshold,)] * self.p
            )
        insertions = [int(r[0]) for r in results]
        stale_extra = sum(int(r[1]) for r in results)
        sizes = [int(r[2]) for r in results]
        machine = sampler.machine
        for pe, ((candidates, b, _w, _secs), inserted, size) in enumerate(
            zip(prep, insertions, sizes)
        ):
            if b == 0:
                continue
            scanned = b if sampler.weighted else int(candidates)
            clock.charge(
                "prepare",
                pe,
                machine.scan_time(scanned, batch_size=b)
                + machine.key_gen_time(2 * int(candidates) + 1)
                + machine.key_gen_time(max(b, 1)),
            )
            clock.charge("insert", pe, machine.tree_op_time(inserted, max(size, 1)))
        batch_items = sum(int(r[1]) for r in prep)
        sampler._items_seen += batch_items
        sampler._total_weight += sum(float(r[2]) for r in prep)

        # prepare the next round under the current (soon stale) threshold;
        # runs while the selection below picks the fresh one
        self._dispatch_prepare()

        metrics = sampler._finish_round(
            clock, phase_comm_before, batch_items, insertions, sizes
        )
        metrics.stale_extra_candidates = stale_extra
        busy = max((float(r[3]) for r in prep), default=0.0)
        self._attach_overlap(
            metrics,
            busy_measured=busy,
            wait_time=wait_time,
            was_async=was_async,
            overlapped_phases=("select", "threshold"),
        )
        return metrics

    def _dispatch_prepare(self) -> None:
        sampler = self.sampler
        self._apply_batch_size_change()
        with self.comm.phase("prepare"):
            self._pending = self.comm.run_per_pe_async(
                sampler._handle,
                pe_kernels.prepare_batch_kernel,
                [(sampler.threshold, sampler.weighted)] * self.p,
            )


class WindowPipelineEngine(_PipelineEngineBase):
    """Pipelined rounds for the distributed sliding-window sampler.

    Window keys are dense (expiry admits no insertion threshold), so the
    prepared batches are never stale — both pipeline modes behave
    identically and the pipelined rounds are exact.  Keys come from the
    dedicated generation RNG (the prepare overlaps the selection's pivot
    proposals), so the samples are statistically equivalent but not
    byte-identical to the lock-step windowed run.
    """

    def __init__(self, sampler: DistributedWindowSampler, mode: str) -> None:
        super().__init__(sampler)
        mode = normalize_pipeline_mode(mode)
        if mode == "off":
            raise ValueError("pipeline mode 'off' does not need an engine")
        if not getattr(sampler, "_has_worker_stream", False):
            raise ValueError(
                "pipelined rounds need worker-local stream shards; call "
                "sampler.attach_worker_stream() first"
            )
        self.mode = mode

    def step(self) -> RoundMetrics:
        """Process one windowed round, overlapping next-round preparation."""
        sampler = self.sampler
        comm = self.comm
        clock = PhaseClock(self.p)
        phase_comm_before = comm.ledger.time_by_phase()

        if self._pending is None:
            self._dispatch_prepare()
        prep, wait_time, was_async = self._join_pending()

        with comm.phase("insert"):
            results = comm.run_per_pe(sampler._handle, pe_kernels.window_ingest_prepared_kernel)
        insertions = [int(kept) for kept, _size in results]
        machine = sampler.machine
        for pe, ((b, _w, _stamp, _secs), (kept, size)) in enumerate(zip(prep, results)):
            if b == 0:
                continue
            clock.charge(
                "prepare",
                pe,
                machine.scan_time(b, batch_size=b) + machine.key_gen_time(b),
            )
            clock.charge("insert", pe, machine.tree_op_time(int(kept) + 1, max(int(size), 1)))
        batch_items = sum(int(r[0]) for r in prep)
        sampler._items_seen += batch_items
        sampler._total_weight += sum(float(r[1]) for r in prep)
        for r in prep:
            if int(r[2]) >= 0:
                sampler._max_stamp = max(sampler._max_stamp, int(r[2]))

        # prepare the next round; runs while expiry + re-selection execute
        self._dispatch_prepare()

        metrics = sampler._expire_select_finish(
            clock, phase_comm_before, batch_items, insertions
        )
        busy = max((float(r[3]) for r in prep), default=0.0)
        self._attach_overlap(
            metrics,
            busy_measured=busy,
            wait_time=wait_time,
            was_async=was_async,
            overlapped_phases=("expire", "select", "threshold"),
        )
        self._rounds += 1
        return metrics

    def _dispatch_prepare(self) -> None:
        self._apply_batch_size_change()
        with self.comm.phase("prepare"):
            self._pending = self.comm.run_per_pe_async(
                self.sampler._handle,
                pe_kernels.window_prepare_kernel,
                [(self.sampler.weighted,)] * self.p,
            )


def make_pipeline_engine(sampler, mode: str):
    """Engine for ``sampler`` (unbounded reservoir or sliding-window)."""
    if isinstance(sampler, DistributedWindowSampler):
        return WindowPipelineEngine(sampler, mode)
    if isinstance(sampler, DistributedReservoirSampler):
        return UnboundedPipelineEngine(sampler, mode)
    raise ValueError(
        f"pipelining supports the 'ours' reservoir samplers and the windowed sampler, "
        f"not {type(sampler).__name__} (the centralized 'gather' baseline has no "
        "PE-local reservoir to prepare into)"
    )
