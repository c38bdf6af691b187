"""High-level convenience API.

Three entry points cover the common uses of the library:

* :class:`ReservoirSampler` — a *sequential* weighted or uniform reservoir
  sampler for single-process streams (Sections 4.1/4.3 of the paper).
* :func:`make_distributed_sampler` — factory for the distributed samplers by
  their paper names: ``"ours"``, ``"ours-8"`` (any ``"ours-<d>"``),
  ``"gather"`` and ``"ours-variable"``.
* :class:`DistributedSamplingRun` — binds a mini-batch stream, a distributed
  sampler and a machine model, runs a number of rounds and exposes the
  sample plus the collected metrics.  The scaling benchmarks are thin
  wrappers around this class.
"""

from __future__ import annotations

import re
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import pe_kernels
from repro.core.centralized import CentralizedGatherSampler
from repro.core.distributed import DistributedReservoirSampler
from repro.core.sequential import SequentialUniformReservoir, SequentialWeightedReservoir
from repro.core.store import normalize_store_name
from repro.core.variable_size import VariableSizeReservoirSampler
from repro.network.base import Communicator, make_communicator
from repro.network.process_comm import WorkerError
from repro.obs.collect import TraceCollector, resolve_trace
from repro.obs.health import resolve_health
from repro.obs.log import get_logger
from repro.obs.serve import resolve_serve
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.machine import MachineSpec
from repro.runtime.metrics import RunMetrics
from repro.selection.ams_select import AmsSelection
from repro.selection.bernoulli_pivot import SinglePivotSelection
from repro.selection.multi_pivot import MultiPivotSelection
from repro.stream.items import ItemBatch
from repro.stream.minibatch import MiniBatchStream
from repro.stream.stamped import TimestampedMiniBatchStream
from repro.utils.validation import check_positive, check_positive_int
from repro.window.decayed import DecayedReservoir
from repro.window.distributed import DistributedWindowSampler
from repro.window.sliding import SlidingWindowReservoir

__all__ = ["ReservoirSampler", "make_distributed_sampler", "DistributedSamplingRun"]

CommLike = Union[str, Communicator]

_SIM_ALIASES = ("sim", "simulated", "simcomm")

_logger = get_logger("core.api")


def _pivot_selection_for(name: str) -> Optional[Union[SinglePivotSelection, MultiPivotSelection]]:
    """Selection algorithm for an ``"ours"`` / ``"ours-<d>"`` algorithm name.

    Returns ``None`` when ``name`` is not in the 'ours' pivot family (the
    caller decides whether that is an error).
    """
    if name == "ours":
        return SinglePivotSelection()
    match = re.fullmatch(r"ours-(\d+)", name)
    if match:
        d = int(match.group(1))
        return MultiPivotSelection(d) if d > 1 else SinglePivotSelection()
    return None


def _resolve_comm(
    comm: CommLike, p: Optional[int], machine: Optional[MachineSpec] = None, **comm_kwargs
) -> Communicator:
    """Accept either a constructed communicator or a backend name + ``p``.

    When the *simulated* backend is requested by name and a machine model
    is given, its network constants (``machine.comm``) parameterise the
    cost simulator, so local-work and communication times come from the
    same machine description.  Extra ``comm_kwargs`` (e.g.
    ``payload_transport="shm"`` for the process backend) are forwarded to
    the backend constructor; passing them alongside an already constructed
    communicator is an error.
    """
    if isinstance(comm, Communicator):
        if comm_kwargs:
            raise ValueError(
                f"comm is an already constructed communicator; backend options "
                f"{sorted(comm_kwargs)} must be passed to its constructor instead"
            )
        return comm
    if p is None:
        raise ValueError(
            f"comm={comm!r} names a backend, so the number of PEs must be given via p="
        )
    kwargs = dict(comm_kwargs)
    if machine is not None and comm.strip().lower() in _SIM_ALIASES:
        kwargs["cost"] = machine.comm
    return make_communicator(comm, p, **kwargs)


class ReservoirSampler:
    """Sequential reservoir sampler (weighted by default).

    A small facade over :class:`SequentialWeightedReservoir` /
    :class:`SequentialUniformReservoir` so that the quickstart fits in a few
    lines::

        sampler = ReservoirSampler(k=100, weighted=True, seed=1)
        sampler.feed(ids, weights)
        sample = sampler.sample_ids()

    Every batch gets dense keys, is prefiltered against the current
    threshold, merged into a reservoir store and truncated to ``k``;
    :meth:`add` feeds a batch of one.  ``store`` selects the store backend:
    ``"merge"`` (the default, also spelled ``None``) or ``"btree"``.  It
    never changes the sample.

    ``kernel_tier`` selects the hot-loop implementation (``"numpy"``,
    ``"jit"`` or ``"auto"``, see :mod:`repro.core.jit_kernels`); it has no
    effect in window mode and never changes the sample.

    ``trace`` enables span recording (see :mod:`repro.obs`): ``True`` or a
    :class:`~repro.obs.collect.TraceCollector` records insert spans on the
    collector (exposed as :attr:`trace`), a bare
    :class:`~repro.obs.tracer.Tracer` records onto that tracer directly.
    Tracing never touches the RNG — the sample is byte-identical either
    way.

    ``window`` and ``decay`` switch to the recency-weighted samplers of
    :mod:`repro.window` (mutually exclusive):

    * ``window=W`` samples from the **last W items** only
      (:class:`~repro.window.sliding.SlidingWindowReservoir`; ``store``
      does not apply — the window keeps its own candidate buffer),
    * ``decay=lam`` weights item ``i`` by ``w_i * lam**age_i``
      (:class:`~repro.window.decayed.DecayedReservoir`; ``lam = 1``
      reproduces the unbounded sampler exactly).
    """

    def __init__(
        self,
        k: int,
        *,
        weighted: bool = True,
        seed=None,
        store: Optional[str] = None,
        window: Optional[int] = None,
        decay: Optional[float] = None,
        kernel_tier: str = "numpy",
        trace=None,
    ) -> None:
        from repro.core.jit_kernels import resolve_kernel_tier

        # tracing never touches the sampler's RNG, so samples are
        # byte-identical with tracing on or off (test-enforced)
        if isinstance(trace, Tracer):
            self.trace = None
            self._tracer = trace
        else:
            self.trace = resolve_trace(trace)
            self._tracer = self.trace.tracer if self.trace is not None else NULL_TRACER
        self.k = check_positive_int(k, "k")
        self.weighted = bool(weighted)
        self.window = window
        self.decay = decay
        self.kernel_tier = resolve_kernel_tier(kernel_tier)
        if window is not None and decay is not None:
            raise ValueError("window= and decay= are mutually exclusive")
        if window is not None:
            if store is not None:
                raise ValueError("store= does not apply to sliding-window sampling")
            self.store = None
            self._impl = SlidingWindowReservoir(k, window, weighted=weighted, seed=seed)
            return
        self.store = normalize_store_name("merge" if store is None else store)
        if decay is not None:
            self._impl = DecayedReservoir(
                k, decay, weighted=weighted, seed=seed, store=self.store,
                kernel_tier=self.kernel_tier,
            )
        else:
            sequential = SequentialWeightedReservoir if weighted else SequentialUniformReservoir
            self._impl = sequential(k, seed, store=self.store, kernel_tier=self.kernel_tier)

    @property
    def items_seen(self) -> int:
        return self._impl.items_seen

    @property
    def size(self) -> int:
        return self._impl.size

    @property
    def threshold(self) -> Optional[float]:
        return self._impl.threshold

    @property
    def buffer_size(self) -> Optional[int]:
        """Buffered window candidates (``None`` outside window mode)."""
        return self._impl.buffer_size if self.window is not None else None

    def add(self, item_id: int, weight: float = 1.0) -> bool:
        """Feed one item; returns whether it entered the reservoir.

        In window mode the return value means "entered the *candidate
        buffer*" — the item may sit above the current sample boundary and
        only enter the sample once older items expire; check
        :meth:`sample_ids` for membership.  Per-item feeding of a windowed
        sampler costs a vectorized pass over the candidate buffer per
        item; prefer :meth:`feed` with batches on hot paths.
        """
        if self.window is not None or self.decay is not None:
            return self._impl.insert(item_id, weight if self.weighted else 1.0)
        if self.weighted:
            return self._impl.insert(item_id, weight)
        return self._impl.insert(item_id)

    def feed(self, ids: Sequence[int], weights: Optional[Sequence[float]] = None) -> None:
        """Feed a batch of items (weights default to 1)."""
        ids = np.asarray(ids, dtype=np.int64)
        if weights is None:
            weights = np.ones(ids.shape[0], dtype=np.float64)
        batch = ItemBatch(ids=ids, weights=np.asarray(weights, dtype=np.float64))
        self.feed_batch(batch)

    def feed_batch(self, batch: ItemBatch) -> None:
        with self._tracer.span("insert", cat="kernel", items=int(batch.ids.shape[0])):
            self._impl.process(batch)

    def sample_ids(self) -> np.ndarray:
        return self._impl.sample_ids()

    def sample_with_keys(self) -> List[Tuple[float, int, float]]:
        return self._impl.sample_with_keys()

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # tracing is a session-scoped observer, not sampler state: a
        # collector may hold process handles, so checkpoints drop it
        state = dict(self.__dict__)
        state["trace"] = None
        state["_tracer"] = NULL_TRACER
        return state

    def save(self, path: Union[str, Path]) -> Path:
        """Checkpoint this sampler to ``path`` (atomic, versioned envelope).

        The sequential samplers hold no OS resources, so the whole object
        pickles; the envelope adds the magic/version/CRC header of
        :mod:`repro.checkpoint.format` so corruption and version skew are
        detected on load.  Continuing a loaded sampler is byte-identical
        to never having stopped.
        """
        from repro.checkpoint.format import save_checkpoint_file

        return save_checkpoint_file(path, {"kind": "sequential_sampler", "sampler": self})

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ReservoirSampler":
        """Restore a sampler previously written by :meth:`save`."""
        from repro.checkpoint.format import CheckpointError, load_checkpoint_file

        payload = load_checkpoint_file(path)
        if not isinstance(payload, dict) or payload.get("kind") != "sequential_sampler":
            raise CheckpointError(
                f"{path} is a valid checkpoint but not a sequential-sampler one; "
                "distributed run checkpoints are restored via DistributedSamplingRun.resume()"
            )
        sampler = payload["sampler"]
        if not isinstance(sampler, cls):
            raise CheckpointError(
                f"{path} holds a {type(sampler).__name__}, not a {cls.__name__}"
            )
        return sampler


def make_distributed_sampler(
    algorithm: str,
    k: int,
    comm: CommLike,
    *,
    p: Optional[int] = None,
    machine: Optional[MachineSpec] = None,
    weighted: bool = True,
    seed: Optional[int] = 0,
    k_hi: Optional[int] = None,
    store: str = "merge",
    backend: Optional[str] = None,
    local_thresholding: bool = True,
    window: Optional[int] = None,
    decay: Optional[float] = None,
    kernel_tier: str = "numpy",
) -> Union[DistributedReservoirSampler, CentralizedGatherSampler, DistributedWindowSampler]:
    """Create a distributed sampler by its paper name.

    ``algorithm`` is one of

    * ``"ours"`` — Algorithm 1 with single-pivot selection,
    * ``"ours-<d>"`` (e.g. ``"ours-8"``) — Algorithm 1 with ``d``-pivot selection,
    * ``"ours-variable"`` — variable reservoir size in ``[k, k_hi]`` (Section 4.4),
    * ``"gather"`` — the centralized gathering baseline (Section 4.5).

    ``comm`` selects the execution backend: an already constructed
    :class:`~repro.network.base.Communicator`, or a backend name —
    ``"sim"`` for the single-process cost simulator or ``"process"`` for
    real ``multiprocessing`` workers — combined with the PE count ``p``
    (e.g. ``make_distributed_sampler("ours", 100, "process", p=4)``).
    The same seed produces byte-identical samples under either backend.

    ``store`` picks the reservoir store backend (``"merge"``, the
    vectorized default, or ``"btree"``, the paper's data structure);
    ``backend`` is its deprecated alias.

    ``window=W`` switches to the **distributed sliding-window sampler**
    (:class:`~repro.window.distributed.DistributedWindowSampler`): the
    sample covers only the last ``W`` stamp units, the selection algorithm
    named by ``algorithm`` (``"ours"`` / ``"ours-<d>"``) re-establishes
    the sample boundary each round, and ``store`` does not apply — each PE
    keeps a window candidate buffer instead of a pruned reservoir.
    ``decay`` is not supported for distributed samplers yet.

    ``kernel_tier`` (``"numpy"``, ``"jit"`` or ``"auto"``) picks the
    hot-loop implementation the PEs run — see
    :mod:`repro.core.jit_kernels`.  The tier never changes the sample.
    """
    from repro.core.jit_kernels import resolve_kernel_tier

    name = algorithm.strip().lower()
    store = backend if backend is not None else store
    # validate the argument combinations *before* resolving the
    # communicator, so an invalid call (including kernel_tier="jit"
    # without numba installed) never spawns and then leaks workers
    kernel_tier = resolve_kernel_tier(kernel_tier)
    if decay is not None:
        raise ValueError("decay= is not supported for distributed samplers yet")
    if window is not None:
        check_positive_int(window, "window")
        if name == "gather" or name in ("ours-variable", "variable"):
            raise ValueError(
                f"window= is only supported for the 'ours' family, not {algorithm!r}"
            )
        if normalize_store_name(store) != "merge":
            raise ValueError(
                "store= does not apply to sliding-window sampling (each PE keeps a "
                "window candidate buffer instead of a pruned reservoir store)"
            )
        if k_hi is not None:
            raise ValueError("k_hi= is only meaningful for 'ours-variable', not with window=")
        if local_thresholding is not True:
            raise ValueError(
                "local_thresholding= does not apply to sliding-window sampling "
                "(windows admit no insertion threshold)"
            )
        selection = _pivot_selection_for(name)
        if selection is None:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected 'ours' or 'ours-<d>' with window="
            )
        return DistributedWindowSampler(
            k,
            window,
            _resolve_comm(comm, p, machine),
            selection=selection,
            machine=machine,
            weighted=weighted,
            seed=seed,
            kernel_tier=kernel_tier,
        )
    comm = _resolve_comm(comm, p, machine)
    common = dict(machine=machine, weighted=weighted, seed=seed, kernel_tier=kernel_tier)
    if name == "gather":
        return CentralizedGatherSampler(k, comm, store=store, **common)
    if name in ("ours-variable", "variable"):
        upper = k_hi if k_hi is not None else 2 * k
        return VariableSizeReservoirSampler(
            k,
            upper,
            comm,
            selection=AmsSelection(num_pivots=2),
            store=store,
            local_thresholding=local_thresholding,
            **common,
        )
    selection = _pivot_selection_for(name)
    if selection is not None:
        return DistributedReservoirSampler(
            k,
            comm,
            selection=selection,
            store=store,
            local_thresholding=local_thresholding,
            **common,
        )
    raise ValueError(
        f"unknown algorithm {algorithm!r}; expected 'ours', 'ours-<d>', 'ours-variable' or 'gather'"
    )


class DistributedSamplingRun:
    """Run a distributed sampler over a mini-batch stream and collect metrics.

    This is the library's one round driver: every mode below shares the
    same round loop, so tracing, health monitoring, the metrics server,
    checkpoints and worker-death recovery work the same way in each.
    Every measured round adds its simulated time and its measured wall
    time to :attr:`metrics`.

    Parameters
    ----------
    algorithm:
        Paper name of the algorithm (see :func:`make_distributed_sampler`),
        or an already constructed sampler object.
    k:
        Sample size (ignored when a sampler object is passed).
    p:
        Number of PEs (ignored when a sampler object is passed).
    stream:
        A mini-batch stream the coordinator feeds to the PEs each round.
        Without one, each PE generates its own share of the default
        stream inside its worker (a worker-local stream shard, see
        :mod:`repro.stream.shard`), which replicates a
        :class:`~repro.stream.minibatch.MiniBatchStream` with the same
        ``batch_size`` and ``seed`` exactly — so the sample is the same
        either way, but on the process backend batch generation runs in
        parallel in the workers.  The windowed sampler has no worker-side
        lock-step round; without ``stream=`` and ``pipeline=`` it is fed a
        coordinator-side
        :class:`~repro.stream.stamped.TimestampedMiniBatchStream`.
    batch_size:
        Items per PE per round of the default stream, or ``"auto"`` to let
        a :class:`~repro.pipeline.autotune.BatchSizeAutotuner` resize the
        worker stream shards between rounds toward ``target_round_time``
        seconds per round (requires worker shards: no ``stream=``, and
        ``pipeline=`` for the windowed sampler).
    target_round_time:
        Latency target of ``batch_size="auto"`` (seconds per round).
    warmup_rounds:
        Rounds processed before measurement starts: they run (and are
        checkpointed and recovered like any other round) on the first
        :meth:`run` call that processes rounds, but are not recorded in
        :attr:`metrics` — the paper's steady state, with few insertions
        per batch, only establishes itself after the first batches.
    comm:
        Execution backend when ``algorithm`` is a name: ``"sim"`` (default,
        the cost simulator) or ``"process"`` (real multiprocess workers),
        or an already constructed communicator.
    window:
        When given, run the distributed *sliding-window* sampler over the
        last ``window`` items; its streams are timestamped, so every item
        carries its global arrival index.
    pipeline:
        ``"off"`` (default) runs lock-step rounds.  ``"strict"`` /
        ``"relaxed"`` switch to the asynchronous double-buffered rounds of
        :mod:`repro.pipeline` over worker stream shards (so ``stream=``
        cannot be combined with it): the next round's preparation overlaps
        the current round's selection — genuinely on the multiprocess
        backend, as a modeled ``max(prepare, select)`` round cost on the
        simulator.  ``"strict"`` is byte-identical to lock-step rounds.
        Both the unbounded and the windowed samplers support it; the
        centralized ``"gather"`` baseline does not.
    kernel_tier:
        Hot-loop implementation the PEs run (``"numpy"``, ``"jit"`` or
        ``"auto"``, see :mod:`repro.core.jit_kernels`).  The resolved tier
        is recorded in :attr:`metrics` (``RunMetrics.kernel_tier``).
        Ignored when a constructed sampler object is passed — the sampler
        already carries its tier.
    comm_kwargs:
        Extra keyword arguments forwarded to the backend constructor when
        ``comm`` is a name — e.g. ``payload_transport="shm"`` /
        ``shm_min_bytes=`` or ``start_method=`` for the process backend.
    checkpoint_dir:
        Directory for on-disk checkpoints (see :mod:`repro.checkpoint`).
        When set, a round-0 checkpoint is written immediately so
        worker-death recovery always has a restorable base, and
        :meth:`run` transparently recovers from worker deaths on the
        process backend: respawn (``ProcessComm.recover``), restore the
        last checkpoint, replay the lost rounds.  The final sample is
        byte-identical to an undisturbed run.
    checkpoint_every:
        Write a checkpoint every N completed rounds (requires
        ``checkpoint_dir``); ``None`` keeps only the explicit saves.
    keep_checkpoints:
        Retention count for periodic checkpoints (oldest pruned first).
    max_recoveries:
        Worker-death recoveries :meth:`run` attempts before re-raising.
    trace:
        ``True`` or a :class:`~repro.obs.collect.TraceCollector` enables
        distributed tracing: per-PE kernel spans, coordinator phase
        spans, clock-aligned cross-process collection and a live metrics
        registry (see :mod:`repro.obs`).  The collector is exposed as
        :attr:`trace`; export with ``run.trace.export("trace.json")``.
        Tracing never touches any RNG — samples are byte-identical with
        tracing on or off.
    health:
        ``True``, a :class:`~repro.obs.health.HealthConfig` or a
        :class:`~repro.obs.health.HealthMonitor` enables live health
        monitoring: workers publish per-phase heartbeats and a watchdog
        daemon thread classifies every rank as
        ``ok|straggler|stalled|dead`` against adaptive EWMA deadlines
        (see :mod:`repro.obs.health`).  Exposed as :attr:`health`.  Like
        tracing, heartbeats never touch any RNG.
    on_stall:
        Watchdog policy when a rank exceeds its stall deadline (requires
        ``health=``): ``"warn"`` (default) logs and counts,
        ``"recover"`` kills the stuck worker and lets the run's
        checkpoint recovery replay the lost rounds (byte-identical, like
        SIGKILL recovery), ``"raise"`` kills it and raises
        :class:`~repro.obs.health.StallError`.
    serve_metrics:
        ``True`` or an ``("127.0.0.1", 0)``-style address starts the
        live HTTP exporter (:class:`~repro.obs.serve.HealthServer`)
        serving ``GET /metrics`` (Prometheus text) and ``GET /health``
        (per-rank watchdog state); exposed as :attr:`server` —
        ``run.server.address`` has the bound port.
    """

    def __init__(
        self,
        algorithm: Union[
            str, DistributedReservoirSampler, CentralizedGatherSampler, DistributedWindowSampler
        ] = "ours",
        *,
        k: int = 1000,
        p: int = 4,
        stream: Optional[MiniBatchStream] = None,
        batch_size: Union[int, str] = 1000,
        target_round_time: Optional[float] = None,
        warmup_rounds: int = 0,
        machine: Optional[MachineSpec] = None,
        weighted: bool = True,
        store: str = "merge",
        seed: Optional[int] = 0,
        comm: CommLike = "sim",
        window: Optional[int] = None,
        pipeline: str = "off",
        kernel_tier: str = "numpy",
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        keep_checkpoints: int = 3,
        max_recoveries: int = 3,
        stream_id_offset: int = 0,
        trace=None,
        health=None,
        on_stall: Optional[str] = None,
        serve_metrics=None,
        **comm_kwargs,
    ) -> None:
        # imported lazily: repro.pipeline itself imports from repro.core
        from repro.pipeline.autotune import BatchSizeAutotuner
        from repro.pipeline.engine import make_pipeline_engine, normalize_pipeline_mode

        # validate everything that needs no sampler before spawning workers
        pipeline = normalize_pipeline_mode(pipeline)
        if checkpoint_every is not None and checkpoint_dir is None:
            raise ValueError("checkpoint_every= requires checkpoint_dir=")
        if pipeline != "off" and stream is not None:
            raise ValueError(
                "pipeline= generates the stream inside the workers; a custom "
                "stream= cannot be combined with it"
            )
        self.autotuner, self.batch_size = BatchSizeAutotuner.from_arg(
            batch_size, target_round_time
        )
        if self.autotuner is None and target_round_time is not None:
            raise ValueError("target_round_time= requires batch_size='auto'")
        self.warmup_rounds = check_positive_int(warmup_rounds, "warmup_rounds", allow_zero=True)
        self.machine = machine if machine is not None else MachineSpec.forhlr_like()
        self.window = window
        self.pipeline = pipeline
        self.engine = None
        self.health = None
        self.server = None
        self._owns_comm = isinstance(algorithm, str) and not isinstance(comm, Communicator)
        if isinstance(algorithm, str):
            # _resolve_comm passes a constructed communicator through and
            # rejects stray comm_kwargs alongside one
            comm = _resolve_comm(comm, p, self.machine, **comm_kwargs)
            self.algorithm = algorithm
        elif comm_kwargs:
            raise ValueError(
                f"algorithm is an already constructed sampler; backend options "
                f"{sorted(comm_kwargs)} must be passed to its communicator's constructor"
            )
        else:
            self.algorithm = getattr(algorithm, "algorithm_name", type(algorithm).__name__)
        try:
            if isinstance(algorithm, str):
                self.sampler = make_distributed_sampler(
                    algorithm,
                    k,
                    comm,
                    machine=self.machine,
                    weighted=weighted,
                    store=store,
                    seed=seed,
                    window=window,
                    kernel_tier=kernel_tier,
                )
            else:
                self.sampler = algorithm
            self.stream = stream
            if stream is None and pipeline == "off" and isinstance(
                self.sampler, DistributedWindowSampler
            ):
                # stamped stream so the window is defined in global arrival order
                self.stream = TimestampedMiniBatchStream(self.sampler.p, self.batch_size, seed=seed)
            elif stream is None:
                # worker-local shards replicate the default streams exactly
                self.sampler.attach_worker_stream(
                    self.batch_size,
                    seed=seed,
                    variable=self.autotuner is not None,
                    **({"id_offset": stream_id_offset} if stream_id_offset else {}),
                )
            if self.stream is not None and self.autotuner is not None:
                raise ValueError(
                    "batch_size='auto' resizes the worker stream shards; it cannot drive a "
                    "coordinator-fed stream (a custom stream= or a lock-step windowed run)"
                )
            if self.stream is not None and self.stream.p != self.sampler.p:
                raise ValueError(
                    f"stream has {self.stream.p} PEs but the sampler has {self.sampler.p}"
                )
            if pipeline != "off":
                # make_pipeline_engine rejects samplers that cannot pipeline
                self.engine = make_pipeline_engine(self.sampler, pipeline)
            # ---- tracing, live health monitoring + HTTP exporter ------
            # the monitor shares the trace collector's registry when both
            # are on, so one /metrics scrape sees the whole run
            self.trace = resolve_trace(trace)
            if self.trace is not None:
                self.trace.attach(self.comm, self.sampler._handle)
            shared_registry = self.trace.registry if self.trace is not None else None
            self.health = resolve_health(health, on_stall=on_stall, registry=shared_registry)
            if self.health is not None:
                self.health.attach(self.comm, self.sampler._handle)
                if shared_registry is None:
                    shared_registry = self.health.registry
            self.server = resolve_serve(
                serve_metrics, registry=shared_registry, monitor=self.health
            )
        except BaseException:
            # don't leak the workers we just spawned on invalid arguments
            if self.health is not None:
                self.health.finish()
            if self._owns_comm:
                comm.shutdown()
            raise
        self.metrics = RunMetrics(
            p=self.sampler.p,
            k=getattr(self.sampler, "k", k),
            algorithm=self.algorithm,
            store=getattr(self.sampler, "store", ""),
            comm_backend=getattr(self.sampler.comm, "kind", ""),
            kernel_tier=str(getattr(self.sampler, "kernel_tier", "")),
        )
        # ---- fault tolerance / checkpointing --------------------------
        # the config travels inside every checkpoint so resume() can
        # rebuild an equivalent run without the caller repeating arguments
        self._config = {
            "algorithm": self.algorithm if isinstance(algorithm, str) else None,
            "k": getattr(self.sampler, "k", k),
            "p": self.sampler.p,
            "batch_size": batch_size,
            "target_round_time": target_round_time,
            "warmup_rounds": self.warmup_rounds,
            "weighted": weighted,
            "store": store,
            "seed": seed,
            "comm": comm if isinstance(comm, str) else getattr(comm, "kind", ""),
            "comm_kwargs": dict(comm_kwargs),
            "window": window,
            "pipeline": pipeline,
            "kernel_tier": kernel_tier,
            "machine": self.machine,
            "checkpoint_every": checkpoint_every,
            "keep_checkpoints": keep_checkpoints,
            "max_recoveries": max_recoveries,
        }
        self.max_recoveries = int(max_recoveries)
        self._rounds_completed = 0
        self._pending_recovered: List[int] = []
        self._ckpt = None
        if checkpoint_dir is not None:
            from repro.checkpoint.manager import CheckpointManager

            self._ckpt = CheckpointManager(
                checkpoint_dir, every=checkpoint_every, keep=keep_checkpoints
            )
            if self.trace is not None:
                self._ckpt.tracer = self.trace.tracer
            # round-0 base checkpoint: a worker death in the very first
            # round must still find a restorable state on disk
            self.save_checkpoint()

    # ------------------------------------------------------------------
    @property
    def comm(self) -> Communicator:
        return self.sampler.comm

    @property
    def rounds_completed(self) -> int:
        """Rounds successfully processed, warm-up included (checkpoint numbering unit)."""
        return self._rounds_completed

    def _step_once(self):
        if self.engine is not None:
            return self.engine.step()
        if self.stream is None:
            return self.sampler.process_stream_round()
        return self.sampler.process_round(self.stream.next_round().batches)

    def run(self, rounds: int) -> RunMetrics:
        """Process ``rounds`` measured mini-batch rounds and return the run metrics.

        The first call that processes rounds runs the ``warmup_rounds``
        first.

        With ``checkpoint_dir`` set and a communicator that supports
        :meth:`~repro.network.process_comm.ProcessComm.recover`, a round
        that fails because a worker died is recovered transparently: the
        dead ranks are respawned, all PEs are restored from the newest
        on-disk checkpoint, and the rounds since that checkpoint are
        replayed from their recorded stream positions — the final sample
        is byte-identical to a run that never crashed.  Recoveries are
        counted in :attr:`RunMetrics.recoveries`, the respawned ranks in
        the first replayed round's
        :attr:`~repro.runtime.metrics.RoundMetrics.recovered_pes`.
        """
        target = self._rounds_completed + check_positive_int(rounds, "rounds", allow_zero=True)
        if rounds:
            target += max(self.warmup_rounds - self._rounds_completed, 0)
        try:
            while self._rounds_completed < target:
                index = self._rounds_completed
                if self.health is not None:
                    self.health.arm(index)
                try:
                    # comm.tracer is the collector's tracer when tracing is
                    # attached, the shared NullTracer otherwise
                    start = time.perf_counter()
                    with self.comm.tracer.span("round", cat="round", round=index):
                        round_metrics = self._step_once()
                    elapsed = time.perf_counter() - start
                except WorkerError:
                    if self.health is not None:
                        # keep the watchdog out of the recovery window: a
                        # respawned-but-still-restoring rank must not be
                        # re-flagged (and re-killed) for its silence
                        self.health.disarm()
                        stall = self.health.escalation()
                        if stall is not None:
                            raise stall from None
                    if (
                        self._ckpt is None
                        or not hasattr(self.comm, "recover")
                        or self.metrics.recoveries >= self.max_recoveries
                    ):
                        raise
                    self._recover_and_restore()
                    continue
                self._rounds_completed += 1
                if index >= self.warmup_rounds:
                    self._record(round_metrics, elapsed)
                if self._ckpt is not None and self._ckpt.should_checkpoint(self._rounds_completed):
                    self.save_checkpoint()
        finally:
            if self.health is not None:
                self.health.disarm()
                self.metrics.stalls = self.health.stalls_detected
                self.metrics.stragglers_detected = self.health.stragglers_detected
        return self.metrics

    def _record(self, round_metrics, elapsed: float) -> None:
        """Add one measured round to the metrics, the trace and the autotuner."""
        if self._pending_recovered:
            round_metrics.recovered_pes = list(self._pending_recovered)
            self._pending_recovered = []
        self.metrics.add_round(round_metrics)
        self.metrics.wall_time += elapsed
        if self.trace is not None:
            self.trace.record_round(round_metrics, wall_time=elapsed)
        if self.autotuner is None:
            return
        resized = self.autotuner.update(elapsed)
        if resized is None:
            return
        _logger.debug(
            "autotuner resized batch %d -> %d (round took %.4fs)",
            self.batch_size,
            resized,
            elapsed,
        )
        if self.trace is not None:
            self.trace.on_autotune(self.batch_size, resized)
        self.batch_size = resized
        if self.engine is not None:
            # deferred: the shards must not change under an in-flight prepare
            self.engine.request_batch_size(resized)
        else:
            self.comm.run_per_pe(
                self.sampler._handle, pe_kernels.set_batch_size_kernel, [(resized,)] * self.sampler.p
            )

    def run_for(
        self, seconds: float, *, min_rounds: int = 1, max_rounds: int = 10_000
    ) -> RunMetrics:
        """Process measured rounds until the run's clock reaches ``seconds``.

        Mirrors the paper's fixed-duration runs (30 s per configuration):
        faster configurations complete more mini-batches.  The clock is
        the backend's: accumulated simulated time on ``"sim"``, measured
        wall time otherwise.  At least ``min_rounds`` and at most
        ``max_rounds`` rounds are processed by this call.
        """
        check_positive(seconds, "seconds")
        check_positive_int(max_rounds, "max_rounds")
        clock = "simulated_time" if self.comm.kind == "sim" else "wall_time"
        done = 0
        while done < max_rounds and (
            done < min_rounds or getattr(self.metrics, clock) < seconds
        ):
            self.run(1)
            done += 1
        return self.metrics

    # ------------------------------------------------------------------
    # checkpoint / restore / recovery
    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        from repro.checkpoint.state import snapshot_engine, snapshot_sampler

        # engine first: it joins any in-flight prepare and re-arms it, so
        # the per-PE export that follows sees the parked prepared batch
        engine_snapshot = snapshot_engine(self.engine)
        return {
            "config": dict(self._config),
            "sampler": snapshot_sampler(self.sampler),
            "engine": engine_snapshot,
            "driver_stream": self.stream,
            "metrics": self.metrics,
            "rounds_completed": self._rounds_completed,
        }

    def save_checkpoint(self) -> Path:
        """Write a checkpoint of the complete run state to ``checkpoint_dir``.

        Requires the run to have been constructed with ``checkpoint_dir=``.
        Returns the path written.
        """
        if self._ckpt is None:
            raise RuntimeError(
                "this run has no checkpoint directory; construct it with checkpoint_dir="
            )
        return self._ckpt.save(self._rounds_completed, self._snapshot())

    def _restore(self, rounds_completed: int, payload: dict) -> None:
        from repro.checkpoint.state import restore_engine, restore_sampler

        restore_sampler(self.sampler, payload["sampler"])
        restore_engine(self.engine, payload["engine"])
        self.stream = payload["driver_stream"]
        self.metrics = payload["metrics"]
        self._rounds_completed = int(rounds_completed)

    def _recover_and_restore(self) -> None:
        recoveries = self.metrics.recoveries
        dead = self.comm.recover()
        rounds_completed, payload = self._ckpt.load_latest()
        self._restore(rounds_completed, payload)
        # the restored metrics predate this failure: count it now, and tag
        # the first replayed round with the ranks that were respawned
        self.metrics.recoveries = recoveries + 1
        self._pending_recovered = sorted(set(self._pending_recovered) | set(dead))
        if self.trace is not None:
            # roll the trace back with the state: events of rounds about
            # to be replayed are dropped so nothing appears twice
            self.trace.on_recovery(
                epoch=getattr(self.comm, "epoch", 0),
                dead_ranks=dead,
                resume_round=self._rounds_completed,
            )
        if self.health is not None:
            # reinstall beat channels (the respawned ranks lost theirs)
            # and restart every rank's silence clock at the new epoch
            self.health.on_recovery(epoch=getattr(self.comm, "epoch", 0), dead_ranks=dead)

    @classmethod
    def resume(
        cls,
        checkpoint_dir: Union[str, Path],
        *,
        p: Optional[int] = None,
        comm: Optional[CommLike] = None,
        seed: Optional[int] = None,
        **overrides,
    ) -> "DistributedSamplingRun":
        """Rebuild a run from the newest checkpoint in ``checkpoint_dir``.

        With the original PE count (default), the resumed run continues
        **byte-identically**: same per-PE reservoirs, generator states and
        stream positions, so ``sample_ids()`` after N more rounds equals
        that of an uninterrupted run — on either backend (override with
        ``comm=`` to switch, e.g. resume a simulated run on real
        processes).

        Passing a *different* ``p`` re-shards elastically (fixed-k 'ours'
        family only): the surviving (key, id) pairs are dealt round-robin
        onto the new PE grid, the threshold and stream counters carry
        over, and the stream restarts past every previously emitted item
        id — inclusion probabilities are preserved (not byte-identity;
        see :mod:`repro.checkpoint.elastic`).  ``seed`` reseeds the
        resharded run's generators (defaults to the checkpointed seed).
        """
        from repro.checkpoint.format import CheckpointError
        from repro.checkpoint.manager import CheckpointManager

        manager = CheckpointManager(checkpoint_dir)
        rounds_completed, payload = manager.load_latest()
        config = payload["config"]
        if config.get("algorithm") is None:
            raise CheckpointError(
                "checkpoint was taken from a run built around a pre-constructed sampler "
                "object; rebuild the sampler yourself and restore it with "
                "repro.checkpoint.restore_sampler instead of resume()"
            )
        if overrides:
            raise ValueError(
                f"unsupported resume() overrides {sorted(overrides)}; only p=, comm= and "
                "seed= may differ from the checkpointed configuration"
            )
        new_p = config["p"] if p is None else int(p)
        if new_p != config["p"]:
            return cls._resume_elastic(checkpoint_dir, payload, new_p, comm=comm, seed=seed)
        run = cls(
            config["algorithm"],
            k=config["k"],
            p=config["p"],
            batch_size=config["batch_size"],
            target_round_time=config.get("target_round_time"),
            warmup_rounds=config.get("warmup_rounds", 0),
            machine=config.get("machine"),
            weighted=config["weighted"],
            store=config["store"],
            seed=config["seed"] if seed is None else seed,
            comm=config["comm"] if comm is None else comm,
            window=config["window"],
            pipeline=config["pipeline"],
            kernel_tier=config["kernel_tier"],
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=config["checkpoint_every"],
            keep_checkpoints=config["keep_checkpoints"],
            max_recoveries=config["max_recoveries"],
            **(config["comm_kwargs"] if comm is None else {}),
        )
        run._restore(rounds_completed, payload)
        return run

    @classmethod
    def _resume_elastic(
        cls,
        checkpoint_dir: Union[str, Path],
        payload: dict,
        new_p: int,
        *,
        comm: Optional[CommLike],
        seed: Optional[int],
    ) -> "DistributedSamplingRun":
        from repro.checkpoint.elastic import (
            check_reshardable,
            collect_reservoir_pairs,
            deal_pairs,
            next_free_stream_id,
        )
        from repro.checkpoint.format import CheckpointError

        config = payload["config"]
        sampler_snapshot = payload["sampler"]
        check_reshardable(sampler_snapshot)
        if config["pipeline"] != "off":
            raise CheckpointError(
                "elastic resume supports lock-step runs (pipeline='off'); pipelined runs "
                "park worker-local prepared state that cannot be re-sharded — resume with "
                "the original p instead"
            )
        pairs = collect_reservoir_pairs(sampler_snapshot)
        per_pe_items = deal_pairs(pairs, new_p)
        id_offset = next_free_stream_id(payload)
        run = cls(
            config["algorithm"],
            k=config["k"],
            p=new_p,
            batch_size=config["batch_size"],
            target_round_time=config.get("target_round_time"),
            warmup_rounds=config.get("warmup_rounds", 0),
            machine=config.get("machine"),
            weighted=config["weighted"],
            store=config["store"],
            seed=config["seed"] if seed is None else seed,
            comm=config["comm"] if comm is None else comm,
            window=config["window"],
            pipeline="off",
            kernel_tier=config["kernel_tier"],
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=config["checkpoint_every"],
            keep_checkpoints=config["keep_checkpoints"],
            max_recoveries=config["max_recoveries"],
            stream_id_offset=id_offset,
            **(config["comm_kwargs"] if comm is None else {}),
        )
        driver = sampler_snapshot["driver"]
        run.sampler.preload(
            per_pe_items,
            items_seen=driver.get("_items_seen", 0),
            total_weight=driver.get("_total_weight", 0.0),
            threshold=driver.get("threshold"),
        )
        run._rounds_completed = int(payload["rounds_completed"])
        run.metrics.recoveries = payload["metrics"].recoveries
        # overwrite the directory's newest entry with the re-sharded state
        # so a later recovery or resume restores at the new PE count
        run.save_checkpoint()
        return run

    def sample_ids(self) -> np.ndarray:
        return self.sampler.sample_ids()

    def sample_items(self) -> List[Tuple[int, float]]:
        return self.sampler.sample_items()

    def communication_summary(self) -> dict:
        """Summary of all communication charged during the run."""
        return self.comm.ledger.summary()

    def close(self) -> None:
        """Shut down the communicator **if this run created it**.

        A communicator passed in by the caller (directly or via a
        pre-built sampler) is left running — the caller owns its
        lifecycle.
        """
        if self.engine is not None:
            self.engine.finish()
        if self.server is not None:
            self.server.close()
        if self.health is not None:
            self.health.finish()
        if self.trace is not None:
            self.trace.finish()
        if self._owns_comm:
            self.comm.shutdown()

    def __enter__(self) -> "DistributedSamplingRun":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
