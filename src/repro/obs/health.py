"""Live health monitoring: heartbeats and the stall/straggler watchdog.

PR 7's recovery machinery only notices *death* — a worker process whose
sentinel fires.  A worker that hangs (deadlock, runaway kernel, swapped
host) blocks the whole lock-step round forever, and a merely *slow*
worker silently stretches every collective.  This module adds the live
dimension:

* **Heartbeats** — every per-PE kernel phase emits lightweight beats
  (rank, epoch, round, phase, items, monotonic timestamp) through a
  :class:`BeatChannel` installed into the PE state by a kernel, exactly
  like the trace collector installs its tracers.  Under the multiprocess
  backend beats travel over a dedicated queue each worker inherits at
  spawn; under the simulated backend the inline kernels append to a
  coordinator-local sink — so the equivalence suites exercise the same
  emission path on both backends.
* **Watchdog** — the coordinator's :class:`HealthMonitor` daemon thread
  drains beats, maintains per-``(rank, phase)`` EWMAs of observed phase
  durations and inter-beat gaps, and classifies every rank live as
  ``ok | straggler | stalled | dead``.  Deadlines are adaptive:
  ``grace + factor × EWMA``, floored at ``min_deadline``.  The live
  straggler *skew* (the ``max/mean`` ratio of :mod:`repro.obs.report`,
  computed from the phase EWMAs instead of a post-hoc trace) feeds the
  :class:`~repro.obs.metrics.MetricsRegistry` the HTTP exporter serves.
* **Stall policy** — ``on_stall="warn"`` (default) logs and counts;
  ``"recover"`` and ``"raise"`` kill the stuck worker so the blocked
  collective unwinds as a :class:`~repro.network.process_comm.WorkerError`
  — which either escalates into the driver's existing checkpoint-replay
  recovery (byte-identical samples after a hang, not just after SIGKILL)
  or surfaces as a :class:`StallError`.

Heartbeats never touch any random generator, so samples are
byte-identical with monitoring on or off (test-enforced, like tracing).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.log import get_logger, replay_worker_records
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Heartbeat",
    "BeatChannel",
    "HealthConfig",
    "HealthMonitor",
    "StallError",
    "RANK_STATES",
    "resolve_health",
    "install_beat_kernel",
    "uninstall_beat_kernel",
    "register_worker_beat_queue",
    "set_worker_beat_epoch",
    "worker_beat_queue_registered",
    "worker_beats_sent",
    "worker_wait_beat",
    "create_local_sink",
    "drain_local_sink",
    "close_local_sink",
    "local_sink_send",
    "drain_beat_messages",
]

_logger = get_logger("obs.health")

#: longest :meth:`HealthMonitor.status` / :meth:`~HealthMonitor.finish`
#: wait for beats that a rank's last command reply announced
_BEAT_SETTLE_TIMEOUT = 2.0

#: live rank classifications, healthiest first
RANK_STATES = ("ok", "straggler", "stalled", "dead")


class StallError(RuntimeError):
    """A rank exceeded its stall deadline under ``on_stall="raise"``."""

    def __init__(self, rank: int, phase: Optional[str], silent_for: float) -> None:
        self.rank = int(rank)
        self.phase = phase
        self.silent_for = float(silent_for)
        where = f"in phase {phase!r}" if phase else "between phases"
        super().__init__(
            f"rank {rank} stalled {where}: no heartbeat for {silent_for:.2f}s "
            "(watchdog deadline exceeded)"
        )


@dataclass(frozen=True)
class Heartbeat:
    """One progress beat as the monitor sees it (coordinator side)."""

    rank: int
    epoch: int
    round: int
    phase: str
    kind: str  # "start" | "end"
    items: int
    duration: float  # phase duration in worker-clock seconds ("end" beats)
    sent_at: float  # worker-local monotonic timestamp
    received_at: float  # coordinator monotonic timestamp at drain


# ---------------------------------------------------------------------------
# beat transport: worker-global queue (process backend) and local sinks (sim)
# ---------------------------------------------------------------------------
#: (queue, rank, epoch, beats put) registered once per worker process at spawn
_WORKER_BEATS: Optional[list] = None
#: serialises beat puts from a worker's main and async-kernel threads, so
#: the count echoed in command replies never runs ahead of the queue
_WORKER_BEATS_LOCK = threading.Lock()

#: coordinator-local sinks keyed by monitor token (simulated backend)
_LOCAL_SINKS: Dict[int, deque] = {}
_LOCAL_SINKS_LOCK = threading.Lock()
_NEXT_SINK_TOKEN = [0]


def register_worker_beat_queue(queue, rank: int, epoch: int = 0) -> None:
    """Register this worker process's beat queue (called at worker spawn).

    Also wires the worker's :class:`~repro.obs.log.WorkerLogBuffer` to
    forward ≥WARNING records *eagerly* through the same queue, so crash
    context reaches the coordinator even if this process dies before the
    next drain.
    """
    global _WORKER_BEATS
    _WORKER_BEATS = [queue, int(rank), int(epoch), 0]

    def _eager(record) -> None:
        queue.put(("log", record))

    from repro.obs.log import set_worker_eager_forwarder

    set_worker_eager_forwarder(_eager)


def worker_beat_queue_registered() -> bool:
    return _WORKER_BEATS is not None


def set_worker_beat_epoch(epoch: int) -> None:
    """Stamp subsequent beats with the communicator epoch (after recovery)."""
    if _WORKER_BEATS is not None:
        _WORKER_BEATS[2] = int(epoch)


def _worker_send(message: tuple) -> None:
    if _WORKER_BEATS is not None:
        with _WORKER_BEATS_LOCK:
            try:
                _WORKER_BEATS[0].put(message)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                return
            _WORKER_BEATS[3] += 1


def worker_beats_sent() -> int:
    """Beats this worker process has put on its queue so far.

    Every command reply echoes this count, so the coordinator knows how
    many of this rank's beats must be drained before its view of the rank
    is current: the queue's feeder thread and the command pipe are not
    ordered against each other.
    """
    return _WORKER_BEATS[3] if _WORKER_BEATS is not None else 0


def _worker_epoch() -> int:
    return _WORKER_BEATS[2] if _WORKER_BEATS is not None else 0


#: minimum spacing of "wait" liveness beats sent from blocking wait loops
_WAIT_BEAT_MIN_INTERVAL = 0.2
_LAST_WAIT_BEAT = [0.0]
#: wait beats flow only while a monitor has its kernels installed here —
#: without one, nothing drains the queue between rounds
_WAIT_BEATS_ENABLED = [False]


def worker_wait_beat(phase: str = "wait") -> None:
    """Throttled liveness beat from inside a blocking wait loop.

    A rank blocked in a half-finished collective is *healthy* — it is the
    peer it waits on that stalled.  Without these beats every blocked rank
    goes equally silent and the watchdog has to guess the culprit from
    beat timestamps, which scheduling skew makes unreliable.  The mailbox
    and command-idle wait loops call this on every poll slice; the stuck
    rank is then the only one not beating.  No-op outside a worker
    process or when no monitor is attached.
    """
    if _WORKER_BEATS is None or not _WAIT_BEATS_ENABLED[0]:
        return
    now = time.monotonic()
    if now - _LAST_WAIT_BEAT[0] < _WAIT_BEAT_MIN_INTERVAL:
        return
    _LAST_WAIT_BEAT[0] = now
    _worker_send(
        ("beat", _WORKER_BEATS[1], _WORKER_BEATS[2], 0, phase, "wait", 0, 0.0, now)
    )


def create_local_sink() -> int:
    """A fresh coordinator-local beat sink; returns its token."""
    with _LOCAL_SINKS_LOCK:
        _NEXT_SINK_TOKEN[0] += 1
        token = _NEXT_SINK_TOKEN[0]
        _LOCAL_SINKS[token] = deque()
    return token


def local_sink_send(token: int, message: tuple) -> None:
    with _LOCAL_SINKS_LOCK:
        sink = _LOCAL_SINKS.get(token)
        if sink is not None:
            sink.append(message)


def drain_local_sink(token: int) -> List[tuple]:
    with _LOCAL_SINKS_LOCK:
        sink = _LOCAL_SINKS.get(token)
        if not sink:
            return []
        out = list(sink)
        sink.clear()
    return out


def close_local_sink(token: int) -> None:
    with _LOCAL_SINKS_LOCK:
        _LOCAL_SINKS.pop(token, None)


def drain_beat_messages(messages: Sequence[tuple]) -> List[tuple]:
    """Split raw queue messages: replay eager log records, return beats.

    The beat queue carries two message kinds — ``("beat", ...)`` tuples
    and eagerly-forwarded ``("log", record)`` tuples.  Log records are
    replayed into the coordinator's logging hierarchy immediately
    (whoever drains — monitor thread, recovery, shutdown — forwards
    them); the beat tuples are returned for watchdog processing.
    """
    beats = []
    logs = []
    for message in messages:
        if message and message[0] == "beat":
            beats.append(message)
        elif message and message[0] == "log":
            logs.append(message[1])
    if logs:
        replay_worker_records(logs)
    return beats


# ---------------------------------------------------------------------------
# the per-state channel and its install kernels
# ---------------------------------------------------------------------------
class BeatChannel:
    """Per-PE heartbeat emitter living in the PE's state dict.

    ``begin(phase)`` / ``end(phase)`` bracket a kernel's phase work; the
    ``end`` beat carries the measured duration and the number of items
    processed.  Insert-class kernels pass ``bump_round=True`` so each
    rank tracks its own round counter (insert runs exactly once per
    round on every sampler variant).
    """

    __slots__ = ("rank", "_send", "_epoch_fn", "round", "_starts")

    def __init__(self, rank: int, send: Callable[[tuple], None], epoch_fn: Callable[[], int]) -> None:
        self.rank = int(rank)
        self._send = send
        self._epoch_fn = epoch_fn
        self.round = 0
        self._starts: Dict[str, float] = {}

    def begin(self, phase: str) -> None:
        now = time.monotonic()
        self._starts[phase] = now
        self._send(("beat", self.rank, self._epoch_fn(), self.round, phase, "start", 0, 0.0, now))

    def end(self, phase: str, items: int = 0, *, bump_round: bool = False) -> None:
        now = time.monotonic()
        started = self._starts.pop(phase, now)
        if bump_round:
            self.round += 1
        self._send(
            ("beat", self.rank, self._epoch_fn(), self.round, phase, "end", int(items), now - started, now)
        )


def _zero_epoch() -> int:
    return 0


def install_beat_kernel(state, rank: int, coordinator_pid: int, token: int) -> bool:
    """Install a heartbeat channel into one PE's state.

    In a worker process the channel publishes into the beat queue the
    worker registered at spawn; under the simulated backend (same pid as
    the coordinator) it appends to the monitor's local sink — synthetic
    beats from inline kernels, same wire format.
    """
    if not isinstance(state, dict):
        return False
    if os.getpid() == coordinator_pid:
        def _send(message, _token=token):
            local_sink_send(_token, message)

        state["beat"] = BeatChannel(rank, _send, _zero_epoch)
    elif _WORKER_BEATS is not None:
        state["beat"] = BeatChannel(rank, _worker_send, _worker_epoch)
        _WAIT_BEATS_ENABLED[0] = True
    return True


def uninstall_beat_kernel(state) -> bool:
    """Remove the heartbeat channel (teardown of a monitored run)."""
    if isinstance(state, dict):
        state["beat"] = None
    _WAIT_BEATS_ENABLED[0] = False
    return True


# ---------------------------------------------------------------------------
# watchdog configuration and per-rank state
# ---------------------------------------------------------------------------
@dataclass
class HealthConfig:
    """Tuning knobs of the stall/straggler watchdog.

    The stall deadline of a rank currently inside phase ``f`` is
    ``max(min_deadline, grace + deadline_factor × EWMA_duration(rank, f))``;
    between phases the inter-beat-gap EWMA takes the duration's place.
    ``on_stall`` picks the policy executed when a rank exceeds its
    deadline while a round is armed: ``"warn"`` logs and counts,
    ``"recover"`` kills the stuck worker so the driver's checkpoint
    recovery replays the lost rounds, ``"raise"`` kills it and surfaces
    a :class:`StallError`.
    """

    #: watchdog evaluation period (seconds); also bounds detection latency
    poll_interval: float = 0.05
    #: EWMA smoothing for phase durations and inter-beat gaps
    ewma_alpha: float = 0.25
    #: deadline = max(min_deadline, grace + deadline_factor * EWMA)
    deadline_factor: float = 4.0
    grace: float = 0.25
    min_deadline: float = 1.0
    #: a rank is a straggler when its phase EWMA exceeds this multiple of
    #: the other ranks' mean (and the mean is significant)
    straggler_ratio: float = 2.0
    #: phases with a cross-rank mean below this (seconds) are too fast to
    #: classify stragglers meaningfully
    min_phase_time: float = 1e-3
    #: stall policy: "warn" | "recover" | "raise"
    on_stall: str = "warn"

    def __post_init__(self) -> None:
        if self.on_stall not in ("warn", "recover", "raise"):
            raise ValueError(
                f"on_stall must be 'warn', 'recover' or 'raise', got {self.on_stall!r}"
            )

    def deadline(self, ewma: Optional[float]) -> float:
        if ewma is None:
            return self.min_deadline
        return max(self.min_deadline, self.grace + self.deadline_factor * ewma)


@dataclass
class _RankHealth:
    """Mutable watchdog state of one rank."""

    state: str = "ok"
    round: int = 0
    epoch: int = 0
    beats: int = 0
    items: int = 0
    last_seen: Optional[float] = None  # coordinator clock
    last_sent: Optional[float] = None  # worker clock (CLOCK_MONOTONIC)
    current_phase: Optional[str] = None
    phase_entered: Optional[float] = None  # coordinator clock
    gap_ewma: Optional[float] = None
    phase_ewma: Dict[str, float] = field(default_factory=dict)
    stall_handled: bool = False
    straggler_phases: set = field(default_factory=set)


class HealthMonitor:
    """Coordinator-side heartbeat drain + stall/straggler watchdog.

    Mirrors the :class:`~repro.obs.collect.TraceCollector` lifecycle:
    drivers call :meth:`attach` once, :meth:`arm`/:meth:`disarm` around
    the stretches where workers are expected to make progress,
    :meth:`on_recovery` after a checkpoint restore and :meth:`finish` at
    teardown.  A daemon thread drains beats and evaluates the watchdog
    every ``config.poll_interval`` seconds; :meth:`status` renders the
    live per-rank view the ``/health`` endpoint serves.
    """

    def __init__(
        self,
        config: Optional[HealthConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else HealthConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.ranks: Dict[int, _RankHealth] = {}
        self.stalls_detected = 0
        self.stragglers_detected = 0
        self.watchdog_kills = 0
        self.heartbeats_seen = 0
        self._comm = None
        self._handle = None
        self._token: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.RLock()
        # one drain at a time: a drain that pulled beats off the queue
        # must apply them before another drain may report the view current
        self._drain_lock = threading.Lock()
        self._armed = False
        self._round = 0
        self._epoch = 0
        self._escalation: Optional[StallError] = None
        # set after a watchdog kill: no further stall handling until the
        # driver re-arms or recovers — the blocked peers of the killed
        # rank would otherwise become the "next oldest" culprit each poll
        self._suspended = False
        self._finished = False

    # -- lifecycle -------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self._comm is not None

    def attach(self, comm, handle) -> "HealthMonitor":
        """Bind to a communicator + PE-state handle and start the watchdog."""
        self._comm = comm
        self._handle = handle
        self._finished = False
        self._epoch = int(getattr(comm, "epoch", 0))
        self._token = create_local_sink()
        with self._lock:
            self.ranks = {rank: _RankHealth(epoch=self._epoch) for rank in range(comm.p)}
        self._install()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-health-monitor", daemon=True
        )
        self._thread.start()
        return self

    def _install(self) -> None:
        comm, handle = self._comm, self._handle
        pid = os.getpid()
        comm.run_per_pe(
            handle,
            install_beat_kernel,
            [(rank, pid, self._token) for rank in range(comm.p)],
        )

    def arm(self, round_index: int) -> None:
        """Start a watched stretch: workers are expected to beat."""
        with self._lock:
            self._round = int(round_index)
            self._armed = True
            self._suspended = False
            now = time.monotonic()
            # restart the silence clocks: the stretch before arming
            # (user think-time between run() calls) must not count
            for health in self.ranks.values():
                if health.last_seen is None:
                    health.last_seen = now

    def disarm(self) -> None:
        """End the watched stretch (idle workers are healthy again)."""
        with self._lock:
            self._armed = False

    @property
    def armed(self) -> bool:
        return self._armed

    def escalation(self) -> Optional[StallError]:
        """The pending ``on_stall="raise"`` error, if the watchdog fired."""
        return self._escalation

    def on_recovery(self, *, epoch: int, dead_ranks: Sequence[int]) -> None:
        """Driver hook after ``comm.recover()`` + checkpoint restore.

        Respawned workers lost their channels — reinstall everywhere —
        and every rank's watchdog state restarts at the new epoch so the
        pre-failure silence cannot re-trigger the policy.
        """
        self._epoch = int(epoch)
        self._escalation = None
        self._suspended = False
        self._install()
        now = time.monotonic()
        with self._lock:
            for rank, health in self.ranks.items():
                health.state = "ok"
                health.epoch = self._epoch
                health.current_phase = None
                health.phase_entered = None
                health.stall_handled = False
                health.last_seen = now
        self.registry.counter(
            "repro_watchdog_recoveries_total", "recoveries escalated or observed by the watchdog"
        ).inc()

    def finish(self) -> None:
        """Stop the watchdog thread and uninstall the channels.  Idempotent."""
        if self._finished:
            return
        self._finished = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._comm is not None:
            try:
                self._comm.run_per_pe(
                    self._handle,
                    uninstall_beat_kernel,
                    None,
                )
            except Exception:  # workers may already be shut down
                pass
            self._drain_once(settle=_BEAT_SETTLE_TIMEOUT)
        if self._token is not None:
            close_local_sink(self._token)
            self._token = None

    # -- beat intake -----------------------------------------------------
    def _drain_once(self, settle: float = 0.0) -> int:
        """Pull pending beats from both transports and apply them.

        ``settle > 0`` also waits (up to that many seconds) for the beats
        the ranks' last command replies announced but that are still in
        flight on the process backend's queue.
        """
        with self._drain_lock:
            messages: List[tuple] = []
            if self._token is not None:
                messages.extend(drain_local_sink(self._token))
            comm = self._comm
            if comm is not None and hasattr(comm, "drain_beats"):
                try:
                    messages.extend(comm.drain_beats(replay_logs=False, settle=settle))
                except Exception:  # pragma: no cover - comm torn down mid-drain
                    pass
            beats = drain_beat_messages(messages)
            now = time.monotonic()
            with self._lock:
                for raw in beats:
                    self._apply(raw, now)
        return len(beats)

    def _apply(self, raw: tuple, now: float) -> None:
        _, rank, epoch, round_index, phase, kind, items, duration, sent_at = raw
        if epoch < self._epoch:
            return  # stale beat from before a recovery
        health = self.ranks.get(int(rank))
        if health is None:  # pragma: no cover - unknown rank
            return
        self.heartbeats_seen += 1
        if health.last_seen is not None:
            gap = max(now - health.last_seen, 0.0)
            alpha = self.config.ewma_alpha
            health.gap_ewma = gap if health.gap_ewma is None else (
                alpha * gap + (1.0 - alpha) * health.gap_ewma
            )
        health.last_seen = now
        health.last_sent = float(sent_at)
        health.beats += 1
        health.epoch = int(epoch)
        if kind == "wait":
            # pure liveness: the rank is blocked in a wait loop, not
            # progressing — keep round/items/phase bookkeeping untouched
            if health.stall_handled:
                health.stall_handled = False
            if health.state in ("stalled", "dead"):
                health.state = "ok"
            return
        health.round = int(round_index)
        health.items += int(items)
        if kind == "start":
            health.current_phase = phase
            health.phase_entered = now
        else:
            health.current_phase = None
            health.phase_entered = None
            alpha = self.config.ewma_alpha
            previous = health.phase_ewma.get(phase)
            health.phase_ewma[phase] = duration if previous is None else (
                alpha * duration + (1.0 - alpha) * previous
            )
        # a fresh beat from a flagged rank clears the stall episode
        if health.stall_handled:
            health.stall_handled = False
        if health.state in ("stalled", "dead"):
            health.state = "ok"

    # -- watchdog --------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.config.poll_interval):
            try:
                self._drain_once()
                self._evaluate()
                self._update_registry()
            except Exception:  # pragma: no cover - monitor must never kill the run
                _logger.exception("health monitor iteration failed")

    def _evaluate(self) -> None:
        now = time.monotonic()
        alive = None
        comm = self._comm
        if comm is not None and hasattr(comm, "workers_alive"):
            try:
                alive = comm.workers_alive
            except Exception:  # pragma: no cover
                alive = None
        with self._lock:
            overdue: List[Tuple[int, float]] = []  # (rank, silent_for)
            for rank, health in self.ranks.items():
                if alive is not None and not alive[rank]:
                    health.state = "dead"
                    continue
                elif health.state == "dead":
                    health.state = "ok"
                self._classify_straggler(rank, health)
                if not self._armed or self._suspended or health.last_seen is None:
                    continue
                in_phase_silent = (
                    health.current_phase is not None
                    and health.phase_entered is not None
                    and health.last_seen <= health.phase_entered
                )
                if in_phase_silent:
                    # nothing heard since the phase began: judge against
                    # the adaptive phase-duration deadline (a long kernel
                    # is not a stall)
                    ewma = health.phase_ewma.get(health.current_phase)
                    silent = now - health.phase_entered
                else:
                    # between phases, or in-phase but emitting "wait"
                    # liveness beats from a blocking wait loop
                    ewma = health.gap_ewma
                    silent = now - health.last_seen
                if silent > self.config.deadline(ewma):
                    overdue.append((rank, silent))
            if not overdue:
                return
            # in a blocked collective EVERY rank goes quiet together; the
            # culprit is the one that stopped *first*.  Order by the
            # worker-side send timestamps (CLOCK_MONOTONIC shares its base
            # across processes on one host) — the coordinator-side receive
            # times are quantised to whole drain batches and tie.  One
            # culprit per episode: killing peers that are merely blocked
            # would turn one hang into an avoidable mass recovery.
            def _sent(entry):
                rank, _ = entry
                sent = self.ranks[rank].last_sent
                return (sent if sent is not None else -1.0, rank)

            rank, silent = min(overdue, key=_sent)
            health = self.ranks[rank]
            if health.state != "stalled":
                health.state = "stalled"
                self.stalls_detected += 1
                self.registry.counter(
                    "repro_stalls_total", "watchdog stall detections"
                ).inc()
            if not health.stall_handled:
                health.stall_handled = True
                self._execute_stall_policy(rank, health, silent)

    def _classify_straggler(self, rank: int, health: _RankHealth) -> None:
        if health.state in ("stalled", "dead"):
            return
        is_straggler = False
        for phase, ewma in health.phase_ewma.items():
            others = [
                peer.phase_ewma[phase]
                for r, peer in self.ranks.items()
                if r != rank and phase in peer.phase_ewma
            ]
            if not others:
                continue
            mean = sum(others) / len(others)
            if mean < self.config.min_phase_time:
                continue
            if ewma > self.config.straggler_ratio * mean:
                is_straggler = True
                if phase not in health.straggler_phases:
                    health.straggler_phases.add(phase)
                    self.stragglers_detected += 1
                    self.registry.counter(
                        "repro_stragglers_total", "watchdog straggler detections"
                    ).inc()
            else:
                health.straggler_phases.discard(phase)
        health.state = "straggler" if is_straggler else "ok"

    def _execute_stall_policy(self, rank: int, health: _RankHealth, silent: float) -> None:
        policy = self.config.on_stall
        phase = health.current_phase
        _logger.warning(
            "rank %d stalled (no heartbeat for %.2fs, phase=%s, round=%d); policy=%s",
            rank,
            silent,
            phase,
            health.round,
            policy,
        )
        if policy == "warn":
            return
        error = StallError(rank, phase, silent)
        if policy == "raise":
            self._escalation = error
        self._suspended = True
        killed = self._kill_worker(rank)
        if not killed and policy == "recover":
            # nothing to kill (simulated backend): record the intent; the
            # coordinator itself is the one executing the kernels there
            _logger.warning(
                "on_stall='recover' cannot kill rank %d on backend %r",
                rank,
                getattr(self._comm, "kind", "?"),
            )

    def _kill_worker(self, rank: int) -> bool:
        comm = self._comm
        pids = getattr(comm, "worker_pids", None)
        if not pids:
            return False
        try:
            pid = pids[rank]
            os.kill(pid, signal.SIGKILL)
        except (OSError, IndexError):  # pragma: no cover - already gone
            return False
        self.watchdog_kills += 1
        self.registry.counter(
            "repro_watchdog_kills_total", "stuck workers killed by the watchdog"
        ).inc()
        _logger.warning("watchdog killed stuck worker rank %d (pid %d)", rank, pid)
        return True

    # -- exposure --------------------------------------------------------
    def skew_by_phase(self) -> Dict[str, float]:
        """Live per-phase straggler skew (``max/mean`` over rank EWMAs)."""
        with self._lock:
            out: Dict[str, float] = {}
            phases = {p for h in self.ranks.values() for p in h.phase_ewma}
            for phase in sorted(phases):
                values = [
                    h.phase_ewma[phase] for h in self.ranks.values() if phase in h.phase_ewma
                ]
                if not values:
                    continue
                mean = sum(values) / len(values)
                out[phase] = max(values) / mean if mean > 0 else 1.0
            return out

    def _update_registry(self) -> None:
        registry = self.registry
        with self._lock:
            states = [h.state for h in self.ranks.values()]
        for name, label in (
            ("repro_ranks_ok", "ok"),
            ("repro_ranks_straggler", "straggler"),
            ("repro_ranks_stalled", "stalled"),
            ("repro_ranks_dead", "dead"),
        ):
            registry.gauge(name, f"ranks currently classified {label}").set(
                states.count(label)
            )
        registry.counter("repro_heartbeats_total", "worker heartbeats drained")
        hb = registry.get("repro_heartbeats_total")
        delta = self.heartbeats_seen - hb.value
        if delta > 0:
            hb.inc(delta)
        skews = self.skew_by_phase()
        overall = max(skews.values()) if skews else 1.0
        registry.gauge(
            "repro_straggler_skew",
            "live max/mean ratio of per-rank phase-duration EWMAs (worst phase)",
        ).set(overall)
        for phase, skew in skews.items():
            registry.gauge(
                f"repro_phase_skew_{phase}", f"live max/mean duration skew of phase {phase}"
            ).set(skew)

    def status(self) -> dict:
        """JSON-safe live view served by ``GET /health``.

        Drains first, up to every beat the ranks' completed commands
        announced, so the view covers all work that has returned.
        """
        self._drain_once(settle=_BEAT_SETTLE_TIMEOUT)
        now = time.monotonic()
        with self._lock:
            ranks = {}
            for rank, health in sorted(self.ranks.items()):
                ranks[str(rank)] = {
                    "state": health.state,
                    "round": health.round,
                    "epoch": health.epoch,
                    "phase": health.current_phase,
                    "beats": health.beats,
                    "items": health.items,
                    "last_beat_age_s": (
                        None if health.last_seen is None else round(now - health.last_seen, 6)
                    ),
                }
            states = [h.state for h in self.ranks.values()]
        healthy = all(s == "ok" for s in states)
        degraded = any(s == "straggler" for s in states)
        broken = any(s in ("stalled", "dead") for s in states)
        return {
            "status": "unhealthy" if broken else ("degraded" if degraded else "ok"),
            "healthy": healthy,
            "p": len(states),
            "epoch": self._epoch,
            "armed": self._armed,
            "round": self._round,
            "on_stall": self.config.on_stall,
            "stalls_detected": self.stalls_detected,
            "stragglers_detected": self.stragglers_detected,
            "watchdog_kills": self.watchdog_kills,
            "heartbeats": self.heartbeats_seen,
            "skew_by_phase": self.skew_by_phase(),
            "ranks": ranks,
        }


def resolve_health(
    health,
    *,
    on_stall: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Optional[HealthMonitor]:
    """Resolve a driver's ``health=`` argument (the ``resolve_trace`` shape).

    ``None``/``False`` → no monitoring; ``True`` or a :class:`HealthConfig`
    → a fresh monitor; a :class:`HealthMonitor` instance passes through.
    ``on_stall`` overrides the config policy; ``registry`` lets drivers
    share one registry between tracing and health (a single ``/metrics``).
    """
    if health is None or health is False:
        if on_stall is not None and on_stall != "warn":
            raise ValueError("on_stall= requires health monitoring (health=True)")
        return None
    if health is True:
        config = HealthConfig()
    elif isinstance(health, HealthConfig):
        config = health
    elif isinstance(health, HealthMonitor):
        if on_stall is not None:
            health.config.on_stall = on_stall
            health.config.__post_init__()
        if registry is not None and health.registry is not registry:
            health.registry = registry
        return health
    else:
        raise TypeError(
            "health must be None, a bool, a HealthConfig or a HealthMonitor, "
            f"got {type(health).__name__}"
        )
    if on_stall is not None:
        config.on_stall = on_stall
        config.__post_init__()
    return HealthMonitor(config, registry=registry)
