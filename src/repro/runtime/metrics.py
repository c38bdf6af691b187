"""Per-round and per-run metrics of a sampling execution.

Runs under the simulated backend report *simulated* time derived from the
machine model; every run driven by
:class:`~repro.core.api.DistributedSamplingRun` also carries *measured
wall-clock* time (:attr:`RunMetrics.wall_time`), from which measured
throughput and speedup are derived.

The phase names follow Figure 6 of the paper:

* ``"insert"``  — local processing of the mini-batch (skip loop, key
  generation, insertions into the local reservoir / candidate buffer),
* ``"select"``  — establishing the new global threshold: the distributed
  selection for our algorithms, the sequential selection at the root for
  the centralized algorithm,
* ``"threshold"`` — the all-reduction that publishes the new threshold plus
  pruning the local reservoirs,
* ``"gather"``  — only used by the centralized algorithm: shipping the
  candidate items to the root,
* ``"expire"`` — only used by the windowed samplers: agreeing on the
  newest timestamp and evicting expired candidates from the buffers,
* ``"prepare"`` — only used by the pipelined drivers
  (:mod:`repro.pipeline`): generating the *next* round's batch and keys
  concurrently with the current round's selection.  Its time is **hidden**
  behind the other phases, so it is excluded from a round's total time,
* ``"overlap"`` — the *unhidden* remainder of ``"prepare"``: the time the
  coordinator had to wait for an in-flight prepare to finish before it
  could start the next round.  A perfectly overlapped round has
  ``overlap = 0``; a round that overlaps nothing pays the full prepare
  cost here.

Every phase time is split into a *local* component (bottleneck local work,
i.e. the maximum over PEs) and a *communication* component (from the cost
ledger), so the benchmarks can report both the Figure 6 composition and the
overall speedups/throughput.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.selection.base import SelectionStats

__all__ = ["PHASES", "OVERLAPPED_PHASES", "PhaseTimes", "RoundMetrics", "RunMetrics"]

#: canonical phase order used in reports
PHASES = ("prepare", "insert", "expire", "select", "threshold", "gather", "overlap")

#: phases whose time runs concurrently with the rest of the round and is
#: therefore excluded from round/run totals (their unhidden remainder is
#: accounted under "overlap")
OVERLAPPED_PHASES = ("prepare",)


@dataclass
class PhaseTimes:
    """Local and communication time of one phase."""

    local: float = 0.0
    comm: float = 0.0

    @property
    def total(self) -> float:
        return self.local + self.comm

    def __add__(self, other: "PhaseTimes") -> "PhaseTimes":
        return PhaseTimes(local=self.local + other.local, comm=self.comm + other.comm)


@dataclass
class RoundMetrics:
    """Metrics of one processed mini-batch round."""

    round_index: int
    batch_items: int
    items_seen_total: int
    sample_size: int
    threshold: Optional[float]
    phase_times: Dict[str, PhaseTimes] = field(default_factory=dict)
    insertions_per_pe: List[int] = field(default_factory=list)
    candidates_gathered: int = 0
    selection_stats: Optional[SelectionStats] = None
    selection_ran: bool = False
    #: windowed samplers: candidates expired out of the buffers this round
    evicted_items: int = 0
    #: windowed samplers: total buffered candidates (over-sample) after expiry
    window_buffer_items: int = 0
    #: windowed samplers: the amortised boundary check proved the old
    #: threshold still exact, so the full re-selection was skipped
    selection_skipped: bool = False
    #: pipelined runs: prepare time hidden behind the other phases this
    #: round (measured on the process backend, modeled on the simulator)
    overlap_saved_time: float = 0.0
    #: pipelined runs (relaxed mode): prepared candidates that the fresher
    #: threshold pruned again at ingest time (the staleness overhead)
    stale_extra_candidates: int = 0
    #: fault-tolerant runs: PEs respawned before this round was (re)played
    recovered_pes: List[int] = field(default_factory=list)

    @property
    def simulated_time(self) -> float:
        """Total simulated time of this round.

        Phases in :data:`OVERLAPPED_PHASES` run concurrently with the rest
        of the round, so they do not contribute; their unhidden remainder
        is the ``"overlap"`` phase, which does.
        """
        return sum(
            pt.total for name, pt in self.phase_times.items() if name not in OVERLAPPED_PHASES
        )

    @property
    def max_insertions(self) -> int:
        """Bottleneck number of insertions into any local reservoir."""
        return max(self.insertions_per_pe) if self.insertions_per_pe else 0

    @property
    def total_insertions(self) -> int:
        return sum(self.insertions_per_pe)

    def phase_total(self, phase: str) -> float:
        pt = self.phase_times.get(phase)
        return pt.total if pt else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view; :meth:`from_dict` inverts it losslessly.

        ``simulated_time`` / ``total_insertions`` / ``max_insertions`` are
        derived and only included for report convenience — ``from_dict``
        recomputes them from the stored fields.
        """
        return {
            "round": self.round_index,
            "batch_items": self.batch_items,
            "items_seen_total": self.items_seen_total,
            "sample_size": self.sample_size,
            "threshold": self.threshold,
            "simulated_time": self.simulated_time,
            "phases": {name: (pt.local, pt.comm) for name, pt in self.phase_times.items()},
            "insertions_per_pe": list(self.insertions_per_pe),
            "total_insertions": self.total_insertions,
            "max_insertions": self.max_insertions,
            "candidates_gathered": self.candidates_gathered,
            "selection_stats": (
                None if self.selection_stats is None else dataclasses.asdict(self.selection_stats)
            ),
            "selection_ran": self.selection_ran,
            "selection_skipped": self.selection_skipped,
            "evicted_items": self.evicted_items,
            "window_buffer_items": self.window_buffer_items,
            "overlap_saved_time": self.overlap_saved_time,
            "stale_extra_candidates": self.stale_extra_candidates,
            "recovered_pes": list(self.recovered_pes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RoundMetrics":
        """Rebuild a round from :meth:`as_dict` output, also after a JSON
        round trip (where the phase ``(local, comm)`` tuples come back as
        lists)."""
        stats = data.get("selection_stats")
        threshold = data.get("threshold")
        return cls(
            round_index=int(data["round"]),
            batch_items=int(data["batch_items"]),
            items_seen_total=int(data.get("items_seen_total", 0)),
            sample_size=int(data["sample_size"]),
            threshold=None if threshold is None else float(threshold),
            phase_times={
                name: PhaseTimes(local=float(pair[0]), comm=float(pair[1]))
                for name, pair in dict(data.get("phases", {})).items()
            },
            insertions_per_pe=[int(n) for n in data.get("insertions_per_pe", [])],
            candidates_gathered=int(data.get("candidates_gathered", 0)),
            selection_stats=None if stats is None else SelectionStats(**stats),
            selection_ran=bool(data.get("selection_ran", False)),
            evicted_items=int(data.get("evicted_items", 0)),
            window_buffer_items=int(data.get("window_buffer_items", 0)),
            selection_skipped=bool(data.get("selection_skipped", False)),
            overlap_saved_time=float(data.get("overlap_saved_time", 0.0)),
            stale_extra_candidates=int(data.get("stale_extra_candidates", 0)),
            recovered_pes=[int(r) for r in data.get("recovered_pes", [])],
        )


@dataclass
class RunMetrics:
    """Aggregated metrics of a full simulated run (many rounds)."""

    p: int
    k: int
    algorithm: str
    #: reservoir store backend the run used ("merge", "btree", or "" when unknown)
    store: str = ""
    #: communicator backend the run used ("sim", "process", or "" when unknown)
    comm_backend: str = ""
    #: kernel tier the run used ("numpy", "jit", or "" when unknown)
    kernel_tier: str = ""
    #: measured wall-clock seconds of the run (0 when only simulated time exists)
    wall_time: float = 0.0
    #: worker-death recoveries the run survived (process backend only)
    recoveries: int = 0
    #: watchdog stall detections (health monitoring enabled only)
    stalls: int = 0
    #: watchdog straggler detections (health monitoring enabled only)
    stragglers_detected: int = 0
    rounds: List[RoundMetrics] = field(default_factory=list)

    def add_round(self, metrics: RoundMetrics) -> None:
        self.rounds.append(metrics)

    # ------------------------------------------------------------------
    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_items(self) -> int:
        """Total number of stream items processed across all rounds."""
        return sum(r.batch_items for r in self.rounds)

    @property
    def simulated_time(self) -> float:
        """Total simulated time of the run."""
        return sum(r.simulated_time for r in self.rounds)

    @property
    def total_insertions(self) -> int:
        return sum(r.total_insertions for r in self.rounds)

    @property
    def total_evicted(self) -> int:
        """Total candidates expired across all rounds (windowed runs)."""
        return sum(r.evicted_items for r in self.rounds)

    @property
    def total_overlap_saved(self) -> float:
        """Prepare time hidden behind other phases, summed over rounds."""
        return sum(r.overlap_saved_time for r in self.rounds)

    @property
    def total_stale_extra_candidates(self) -> int:
        """Relaxed-pipeline candidates re-pruned at ingest, summed over rounds."""
        return sum(r.stale_extra_candidates for r in self.rounds)

    @property
    def total_selection_skips(self) -> int:
        """Rounds whose threshold re-selection the amortised check skipped."""
        return sum(1 for r in self.rounds if r.selection_skipped)

    def overlap_efficiency(self) -> float:
        """Fraction of total prepare time hidden behind other phases.

        1.0 means the pipeline fully hid next-round preparation; 0.0 means
        every prepare was paid for in full (or the run was not pipelined).
        """
        prepare = self.phase_times().get("prepare", PhaseTimes()).total
        return self.total_overlap_saved / prepare if prepare > 0 else 0.0

    @property
    def max_insertions_per_pe(self) -> int:
        """Sum over rounds of the bottleneck per-PE insertions."""
        return sum(r.max_insertions for r in self.rounds)

    def throughput_total(self) -> float:
        """Processed items per second of simulated time (whole machine).

        A zero-round (or zero-time) run reports ``0.0`` — not ``inf``,
        which every benchmark would serialise as the spec-invalid JSON
        token ``Infinity``.
        """
        t = self.simulated_time
        return self.total_items / t if t > 0 else 0.0

    def throughput_per_pe(self) -> float:
        """Processed items per PE per second of simulated time (Figure 5)."""
        return self.throughput_total() / self.p

    def wall_throughput_total(self) -> float:
        """Processed items per second of *measured* wall-clock time.

        ``0.0`` for runs without measured wall time (see
        :meth:`throughput_total` on why not ``inf``).
        """
        return self.total_items / self.wall_time if self.wall_time > 0 else 0.0

    def wall_throughput_per_pe(self) -> float:
        """Measured per-PE throughput (compare against ``p=1`` for speedup)."""
        return self.wall_throughput_total() / self.p

    def phase_times(self) -> Dict[str, PhaseTimes]:
        """Per-phase times summed over rounds."""
        totals: Dict[str, PhaseTimes] = {}
        for r in self.rounds:
            for phase, pt in r.phase_times.items():
                totals[phase] = totals.get(phase, PhaseTimes()) + pt
        return totals

    def phase_fractions(self) -> Dict[str, float]:
        """Fraction of total simulated time spent in each phase (Figure 6).

        Overlapped phases (``"prepare"``) are excluded: their time runs
        concurrently with the rest of the round and only their unhidden
        remainder (``"overlap"``) contributes to the round total.
        """
        totals = {
            phase: pt for phase, pt in self.phase_times().items() if phase not in OVERLAPPED_PHASES
        }
        grand = sum(pt.total for pt in totals.values())
        if grand <= 0:
            return {phase: 0.0 for phase in totals}
        return {phase: pt.total / grand for phase, pt in totals.items()}

    def mean_selection_depth(self) -> float:
        """Average selection recursion depth over the rounds that selected."""
        depths = [
            r.selection_stats.recursion_depth
            for r in self.rounds
            if r.selection_ran and r.selection_stats is not None
        ]
        return float(sum(depths)) / len(depths) if depths else 0.0

    def selection_time(self) -> float:
        """Total simulated time of the selection phase."""
        return self.phase_times().get("select", PhaseTimes()).total

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view; :meth:`from_dict` inverts it losslessly.

        ``"rounds"`` stays the round *count* (the key every benchmark
        consumer reads); the full per-round records travel under
        ``"round_details"``, from which :meth:`from_dict` rebuilds the
        identical :class:`RunMetrics` — also after a JSON round trip.
        """
        return {
            "p": self.p,
            "k": self.k,
            "algorithm": self.algorithm,
            "store": self.store,
            "comm_backend": self.comm_backend,
            "kernel_tier": self.kernel_tier,
            "rounds": self.num_rounds,
            "total_items": self.total_items,
            "simulated_time": self.simulated_time,
            "wall_time": self.wall_time,
            "throughput_per_pe": self.throughput_per_pe(),
            "wall_throughput_total": self.wall_throughput_total(),
            "phase_fractions": self.phase_fractions(),
            "mean_selection_depth": self.mean_selection_depth(),
            "total_evicted": self.total_evicted,
            "total_overlap_saved": self.total_overlap_saved,
            "total_stale_extra_candidates": self.total_stale_extra_candidates,
            "total_selection_skips": self.total_selection_skips,
            "overlap_efficiency": self.overlap_efficiency(),
            "recoveries": self.recoveries,
            "stalls": self.stalls,
            "stragglers_detected": self.stragglers_detected,
            "round_details": [r.as_dict() for r in self.rounds],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunMetrics":
        """Rebuild a run from :meth:`as_dict` output (JSON round-trip safe)."""
        return cls(
            p=int(data["p"]),
            k=int(data["k"]),
            algorithm=str(data["algorithm"]),
            store=str(data.get("store", "")),
            comm_backend=str(data.get("comm_backend", "")),
            kernel_tier=str(data.get("kernel_tier", "")),
            wall_time=float(data.get("wall_time", 0.0)),
            recoveries=int(data.get("recoveries", 0)),
            stalls=int(data.get("stalls", 0)),
            stragglers_detected=int(data.get("stragglers_detected", 0)),
            rounds=[RoundMetrics.from_dict(r) for r in data.get("round_details", [])],
        )
