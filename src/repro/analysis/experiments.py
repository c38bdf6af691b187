"""Parameterised scaling experiments (the engine behind the Figure 3-6 benches).

The paper's evaluation runs three algorithms — ``ours`` (single-pivot
selection), ``ours-8`` (8 pivots) and ``gather`` (centralized baseline) —
in weak- and strong-scaling sweeps over node counts 1..256 (20 PEs per
node), sample sizes ``k`` of 1e3..1e5 and per-PE batch sizes of 1e4..1e6,
and reports relative speedups (Figures 3, 4), per-PE throughput (Figure 5)
and the running-time composition (Figure 6).

Running the original parameter ranges in a pure-Python simulation is not
feasible, so :meth:`ScalingConfig.scaled_default` provides a proportionally
scaled-down sweep: sample sizes, batch sizes, PE counts *and* the machine's
latency constant are all reduced such that the ratios that shape the
curves — local work per batch vs. selection latency, sequential-selection
work at the gather root vs. ``alpha * log p`` — stay in the same regime as
on the paper's machine.  :meth:`ScalingConfig.paper_full` keeps the
original parameters for completeness (expect very long runtimes).

All experiments return an :class:`ExperimentResult`, which holds the raw
:class:`~repro.runtime.metrics.RunMetrics` per configuration plus helpers
to compute the exact series the paper plots.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.scaling import speedup_series, throughput_series
from repro.core.api import DistributedSamplingRun, make_distributed_sampler
from repro.network.communicator import SimComm
from repro.network.cost_model import CostParameters
from repro.runtime.machine import MachineSpec
from repro.runtime.metrics import RunMetrics
from repro.stream.generators import UniformWeightGenerator, WeightGenerator
from repro.stream.minibatch import MiniBatchStream
from repro.utils.rng import ensure_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "ScalingConfig",
    "ExperimentResult",
    "run_configuration",
    "run_weak_scaling",
    "run_strong_scaling",
    "run_time_composition",
    "steady_state_preload",
]

#: key identifying one experiment cell: (algorithm, k, size parameter, nodes)
CellKey = Tuple[str, int, int, int]


@dataclass(frozen=True)
class ScalingConfig:
    """Parameters of a weak/strong scaling sweep."""

    #: simulated PEs per "node" (the paper uses 20 MPI ranks per node)
    pes_per_node: int = 4
    #: node counts of the sweep (x axis of Figures 3-5)
    node_counts: Tuple[int, ...] = (1, 4, 16, 64, 256)
    #: sample sizes k
    sample_sizes: Tuple[int, ...] = (50, 500, 5000)
    #: per-PE batch sizes for weak scaling (Figure 3)
    weak_batch_sizes: Tuple[int, ...] = (500, 2000, 8000)
    #: total batch sizes B for strong scaling (Figures 4, 5)
    strong_total_batches: Tuple[int, ...] = (64_000, 256_000, 1_024_000)
    #: algorithms to compare
    algorithms: Tuple[str, ...] = ("ours", "ours-8", "gather")
    #: measured mini-batch rounds per configuration
    rounds: int = 4
    #: warm-up rounds excluded from the metrics
    warmup_rounds: int = 1
    #: steady-state warm start: the sampler is preloaded as if this many
    #: rounds had already been processed (0 disables the warm start).  The
    #: paper's 30-second runs measure exactly this ``n >> k`` steady state.
    steady_state_batches: int = 50
    #: machine model (None = scaled default, see :meth:`machine_spec`)
    machine: Optional[MachineSpec] = None
    #: weighted (True) or uniform (False) sampling
    weighted: bool = True
    #: reservoir store backend ("merge" vectorized default, "btree" paper)
    store: str = "merge"
    #: kernel tier the samplers run ("numpy", "jit" or "auto"; the tier
    #: changes wall-clock speed only — never the sample or simulated times)
    kernel_tier: str = "numpy"
    #: base seed; every cell derives its own deterministic seed from it
    seed: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def scaled_machine(cls, *, cache_items: int = 4_000) -> MachineSpec:
        """Machine constants for the scaled-down sweeps.

        The paper's sample sizes and batch sizes are reduced by roughly
        20-125x; to keep the balance between local batch work, the gather
        root's sequential selection and the ``alpha * log p`` selection
        latency in the same regime, the message start-up latency and the
        per-data-structure constants are reduced by similar factors
        (``alpha`` = 20 ns instead of ~2 us, tree/selection costs of a few
        ns per element), and the modelled cache capacity is reduced so the
        strong-scaling cache transition still falls inside the swept range.
        """
        return MachineSpec(
            time_scan_item=1.0e-9,
            out_of_cache_factor=4.0,
            cache_items=cache_items,
            time_key_gen=4.0e-9,
            time_tree_level=2.0e-9,
            time_array_append=1.0e-9,
            time_sequential_select_item=2.0e-9,
            comm=CostParameters(alpha=2.0e-8, beta=1.0e-9),
        )

    @classmethod
    def scaled_default(cls) -> "ScalingConfig":
        """The default scaled-down sweep used by the benchmarks."""
        return cls(machine=cls.scaled_machine())

    @classmethod
    def smoke(cls) -> "ScalingConfig":
        """A tiny sweep for CI/tests (seconds, not minutes)."""
        return cls(
            node_counts=(1, 4, 16),
            sample_sizes=(16, 128),
            weak_batch_sizes=(256,),
            strong_total_batches=(16_384,),
            rounds=2,
            warmup_rounds=1,
            steady_state_batches=20,
            machine=cls.scaled_machine(cache_items=1_000),
        )

    @classmethod
    def paper_full(cls) -> "ScalingConfig":
        """The paper's original parameters (20 PEs/node, k up to 1e5, b up to 1e6).

        Provided for completeness; running this in the pure-Python simulator
        takes a very long time and a lot of memory.
        """
        return cls(
            pes_per_node=20,
            node_counts=(1, 4, 16, 64, 256),
            sample_sizes=(1_000, 10_000, 100_000),
            weak_batch_sizes=(10_000, 100_000, 1_000_000),
            strong_total_batches=(2**10 * 10_000, 2**10 * 100_000, 2**10 * 1_000_000),
            machine=MachineSpec.forhlr_like(),
        )

    # ------------------------------------------------------------------
    def machine_spec(self) -> MachineSpec:
        return self.machine if self.machine is not None else MachineSpec.forhlr_like()

    def pe_count(self, nodes: int) -> int:
        return int(nodes) * self.pes_per_node

    def cell_seed(self, algorithm: str, k: int, size: int, nodes: int) -> int:
        """Deterministic per-cell seed derived from the base seed.

        Uses a CRC rather than Python's built-in ``hash`` so the seed is
        stable across processes (``hash`` of strings is salted per run).
        """
        description = f"{self.seed}|{algorithm}|{int(k)}|{int(size)}|{int(nodes)}"
        return zlib.crc32(description.encode("utf-8")) & 0x7FFFFFFF

    def with_scale(self, **changes) -> "ScalingConfig":
        """A copy of the config with the given fields replaced."""
        return replace(self, **changes)


@dataclass
class ExperimentResult:
    """Raw metrics of a scaling sweep plus derived series."""

    kind: str
    config: ScalingConfig
    #: size parameter semantics: per-PE batch (weak) or total batch (strong)
    size_label: str
    runs: Dict[CellKey, RunMetrics] = field(default_factory=dict)

    def add(self, algorithm: str, k: int, size: int, nodes: int, metrics: RunMetrics) -> None:
        self.runs[(algorithm, int(k), int(size), int(nodes))] = metrics

    def get(self, algorithm: str, k: int, size: int, nodes: int) -> RunMetrics:
        return self.runs[(algorithm, int(k), int(size), int(nodes))]

    # ------------------------------------------------------------------
    def node_counts(self) -> List[int]:
        return sorted({nodes for (_, _, _, nodes) in self.runs})

    def baseline(self, k: int, size: int) -> RunMetrics:
        """The reference run: ``ours`` with the same k/size on one node."""
        base_nodes = min(self.node_counts())
        return self.get("ours", k, size, base_nodes)

    def speedups(self, algorithm: str, k: int, size: int) -> Dict[int, float]:
        """Relative speedups per node count (Figures 3 and 4)."""
        runs = {
            nodes: metrics
            for (algo, kk, ss, nodes), metrics in self.runs.items()
            if algo == algorithm and kk == k and ss == size
        }
        series = speedup_series(runs, self.baseline(k, size), algorithm=algorithm, k=k)
        return series.as_dict()

    def throughputs_per_pe(self, algorithm: str, k: int, size: int) -> Dict[int, float]:
        """Per-PE throughput per node count (Figure 5)."""
        runs = {
            nodes: metrics
            for (algo, kk, ss, nodes), metrics in self.runs.items()
            if algo == algorithm and kk == k and ss == size
        }
        series = throughput_series(runs, per_pe=True, algorithm=algorithm, k=k)
        return series.as_dict()

    def phase_fractions(self, algorithm: str, k: int, size: int, nodes: int) -> Dict[str, float]:
        """Fractions of simulated time per phase for one cell (Figure 6)."""
        return self.get(algorithm, k, size, nodes).phase_fractions()

    def selection_depth(self, algorithm: str, k: int, size: int, nodes: int) -> float:
        return self.get(algorithm, k, size, nodes).mean_selection_depth()

    def selection_time(self, algorithm: str, k: int, size: int, nodes: int) -> float:
        return self.get(algorithm, k, size, nodes).selection_time()


# ---------------------------------------------------------------------------
# steady-state warm start
# ---------------------------------------------------------------------------
def steady_state_preload(
    sampler,
    *,
    k: int,
    items_seen: int,
    weights: Optional[WeightGenerator] = None,
    weighted: bool = True,
    seed: int = 0,
) -> None:
    """Preload ``sampler`` with a synthetic steady state after ``items_seen`` items.

    The reservoir keys of the steady state are the ``k`` smallest of
    ``items_seen`` i.i.d. keys.  Near zero, the key point process is well
    approximated by a Poisson process whose rate is ``items_seen`` times the
    mean weight (weighted case; the rate is just ``items_seen`` for uniform
    keys), so the ``k`` smallest keys are generated directly as the partial
    sums of exponential gaps — no need to stream ``items_seen`` items.  The
    keys are assigned to uniformly random PEs, which matches the behaviour
    of i.i.d. inputs (Section 3.3.1's "randomly distributed items").

    The preloaded items carry negative ids so they can never collide with
    real stream items.
    """
    check_positive_int(k, "k")
    check_positive_int(items_seen, "items_seen")
    if items_seen <= 10 * k:
        raise ValueError("steady-state preload requires items_seen >> k (at least 10k)")
    rng = ensure_generator(seed)
    weights = weights if weights is not None else UniformWeightGenerator(0.0, 100.0)
    if weighted:
        mean_weight = float(np.mean(weights(4096, rng, pe=0, round_index=0)))
        rate = items_seen * mean_weight
        total_weight = items_seen * mean_weight
    else:
        rate = float(items_seen)
        total_weight = float(items_seen)
    keys = np.cumsum(rng.exponential(1.0 / rate, size=k))
    if not weighted:
        # uniform keys live in (0, 1]; for items_seen >> k this never clips
        keys = np.minimum(keys, 1.0)
    threshold = float(keys[-1])
    p = sampler.p
    assignment = rng.integers(0, p, size=k)
    per_pe: List[List[Tuple[float, int]]] = [[] for _ in range(p)]
    for index, (key, pe) in enumerate(zip(keys.tolist(), assignment.tolist())):
        per_pe[pe].append((key, -(index + 1)))
    sampler.preload(
        per_pe, items_seen=items_seen, total_weight=total_weight, threshold=threshold
    )


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------
def run_configuration(
    algorithm: str,
    *,
    p: int,
    k: int,
    batch_per_pe: int,
    rounds: int,
    warmup_rounds: int = 0,
    prewarm_items: int = 0,
    machine: Optional[MachineSpec] = None,
    weighted: bool = True,
    weights: Optional[WeightGenerator] = None,
    store: str = "merge",
    kernel_tier: str = "numpy",
    seed: int = 0,
) -> RunMetrics:
    """Run one (algorithm, p, k, batch size) cell and return its metrics."""
    check_positive_int(p, "p")
    check_positive_int(k, "k")
    check_positive_int(batch_per_pe, "batch_per_pe")
    machine = machine if machine is not None else MachineSpec.forhlr_like()
    comm = SimComm(p, cost=machine.comm)
    sampler = make_distributed_sampler(
        algorithm,
        k,
        comm,
        machine=machine,
        weighted=weighted,
        store=store,
        seed=seed,
        kernel_tier=kernel_tier,
    )
    weight_gen = weights if weights is not None else UniformWeightGenerator(0.0, 100.0)
    if prewarm_items and prewarm_items > 10 * k:
        steady_state_preload(
            sampler,
            k=k,
            items_seen=prewarm_items,
            weights=weight_gen,
            weighted=weighted,
            seed=seed + 17,
        )
    stream = MiniBatchStream(
        p,
        batch_per_pe,
        weights=weight_gen,
        seed=seed + 1,
    )
    run = DistributedSamplingRun(sampler, stream=stream, warmup_rounds=warmup_rounds)
    return run.run(rounds)


def run_weak_scaling(
    config: Optional[ScalingConfig] = None,
    *,
    batch_sizes: Optional[Sequence[int]] = None,
    sample_sizes: Optional[Sequence[int]] = None,
    algorithms: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Weak scaling (Figure 3): per-PE batch size fixed, machine grows."""
    config = config if config is not None else ScalingConfig.scaled_default()
    batch_sizes = list(batch_sizes if batch_sizes is not None else config.weak_batch_sizes)
    sample_sizes = list(sample_sizes if sample_sizes is not None else config.sample_sizes)
    algorithms = list(algorithms if algorithms is not None else config.algorithms)
    result = ExperimentResult(kind="weak", config=config, size_label="batch_per_pe")
    for batch in batch_sizes:
        for k in sample_sizes:
            for algorithm in algorithms:
                for nodes in config.node_counts:
                    p = config.pe_count(nodes)
                    metrics = run_configuration(
                        algorithm,
                        p=p,
                        k=k,
                        batch_per_pe=batch,
                        rounds=config.rounds,
                        warmup_rounds=config.warmup_rounds,
                        prewarm_items=config.steady_state_batches * p * batch,
                        machine=config.machine_spec(),
                        weighted=config.weighted,
                        store=config.store,
                        kernel_tier=config.kernel_tier,
                        seed=config.cell_seed(algorithm, k, batch, nodes),
                    )
                    result.add(algorithm, k, batch, nodes, metrics)
    return result


def run_strong_scaling(
    config: Optional[ScalingConfig] = None,
    *,
    total_batches: Optional[Sequence[int]] = None,
    sample_sizes: Optional[Sequence[int]] = None,
    algorithms: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Strong scaling (Figures 4, 5): total batch size fixed, machine grows."""
    config = config if config is not None else ScalingConfig.scaled_default()
    total_batches = list(total_batches if total_batches is not None else config.strong_total_batches)
    sample_sizes = list(sample_sizes if sample_sizes is not None else config.sample_sizes)
    algorithms = list(algorithms if algorithms is not None else config.algorithms)
    result = ExperimentResult(kind="strong", config=config, size_label="total_batch")
    for total in total_batches:
        for k in sample_sizes:
            for algorithm in algorithms:
                for nodes in config.node_counts:
                    p = config.pe_count(nodes)
                    batch_per_pe = max(total // p, 1)
                    metrics = run_configuration(
                        algorithm,
                        p=p,
                        k=k,
                        batch_per_pe=batch_per_pe,
                        rounds=config.rounds,
                        warmup_rounds=config.warmup_rounds,
                        prewarm_items=config.steady_state_batches * p * batch_per_pe,
                        machine=config.machine_spec(),
                        weighted=config.weighted,
                        store=config.store,
                        kernel_tier=config.kernel_tier,
                        seed=config.cell_seed(algorithm, k, total, nodes),
                    )
                    result.add(algorithm, k, total, nodes, metrics)
    return result


def run_time_composition(
    config: Optional[ScalingConfig] = None,
    *,
    mode: str = "strong",
    size: Optional[int] = None,
    k: Optional[int] = None,
    algorithms: Sequence[str] = ("ours-8", "gather"),
) -> ExperimentResult:
    """Running-time composition (Figure 6): phase fractions per node count.

    ``mode`` selects weak (fixed per-PE batch) or strong (fixed total batch)
    scaling; ``size`` is interpreted accordingly; ``k`` defaults to the
    largest sample size of the config, as in the paper's Figure 6.
    """
    config = config if config is not None else ScalingConfig.scaled_default()
    if mode not in ("strong", "weak"):
        raise ValueError("mode must be 'strong' or 'weak'")
    k = int(k) if k is not None else max(config.sample_sizes)
    if mode == "strong":
        size = int(size) if size is not None else max(config.strong_total_batches)
        return run_strong_scaling(
            config, total_batches=[size], sample_sizes=[k], algorithms=algorithms
        )
    size = int(size) if size is not None else max(config.weak_batch_sizes)
    return run_weak_scaling(config, batch_sizes=[size], sample_sizes=[k], algorithms=algorithms)
