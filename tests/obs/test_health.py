"""Live health monitoring: heartbeats, the watchdog, and non-interference.

The load-bearing guarantees:

* **non-interference** — ``sample_ids()`` is byte-identical with health
  monitoring on and off, on both execution backends (beats never touch a
  random generator, mirroring the tracing guarantee);
* **liveness bookkeeping** — a live run classifies every rank ``ok``,
  counts each rank's rounds, and exports the straggler-skew gauge;
* **watchdog semantics** — adaptive deadlines, single-culprit stall
  episodes, and the ``warn|recover|raise`` policy plumbing (the actual
  hang-recovery escalation runs against the fault harness in
  ``tests/fault/test_worker_recovery.py``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.api import DistributedSamplingRun
from repro.obs.health import (
    BeatChannel,
    HealthConfig,
    HealthMonitor,
    StallError,
    close_local_sink,
    create_local_sink,
    drain_beat_messages,
    drain_local_sink,
    local_sink_send,
    resolve_health,
    worker_wait_beat,
)
from repro.obs.metrics import MetricsRegistry
from repro.stream import MiniBatchStream

RUN_KWARGS = dict(k=30, p=2, batch_size=200, seed=9)
ROUNDS = 4


def empty_state(rank):
    return {}


class SlowToPickle:
    """Takes ``seconds`` to pickle, which stalls a queue's feeder thread."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __reduce__(self):
        time.sleep(self.seconds)
        return (bytes, ())


def beat_burst_kernel(state, beats):
    """Queue a slow-to-send filler, then ``beats`` beats, and return at once.

    The queue's feeder thread pickles and writes messages in order, so the
    command reply reaches the coordinator well before the beats do.
    """
    from repro.obs import health

    queue, rank, epoch = health._WORKER_BEATS[:3]
    queue.put(("filler", SlowToPickle(0.5)))
    for _ in range(beats):
        health._worker_send(("beat", rank, epoch, 0, "burst", "end", 1, 0.0, 0.0))
    return beats


def run_sample_ids(stream_source, health, **overrides):
    kwargs = {**RUN_KWARGS, **overrides}
    if stream_source == "coordinator":
        kwargs["stream"] = MiniBatchStream(2, 200, seed=9)
    else:  # worker stream shards
        kwargs["warmup_rounds"] = 1
    with DistributedSamplingRun("ours", health=health, **kwargs) as run:
        run.run(ROUNDS)
        return np.sort(run.sample_ids())


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------
class TestHealthConfig:
    def test_deadline_floors_at_min_deadline(self):
        cfg = HealthConfig(min_deadline=1.5, grace=0.1, deadline_factor=4.0)
        assert cfg.deadline(None) == 1.5
        assert cfg.deadline(0.01) == 1.5

    def test_deadline_scales_with_ewma(self):
        cfg = HealthConfig(min_deadline=1.0, grace=0.25, deadline_factor=4.0)
        assert cfg.deadline(2.0) == pytest.approx(0.25 + 4.0 * 2.0)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="on_stall"):
            HealthConfig(on_stall="reboot")


class TestBeatChannel:
    def collect_channel(self):
        beats = []
        return beats, BeatChannel(3, beats.append, lambda: 7)

    def test_begin_end_wire_format(self):
        beats, chan = self.collect_channel()
        chan.begin("insert")
        chan.end("insert", 42, bump_round=True)
        (tag, rank, epoch, rnd, phase, kind, items, duration, sent_at) = beats[0]
        assert (tag, rank, epoch, rnd, phase, kind) == ("beat", 3, 7, 0, "insert", "start")
        (tag, rank, epoch, rnd, phase, kind, items, duration, sent_at) = beats[1]
        assert (tag, rank, epoch, rnd, phase, kind, items) == (
            "beat", 3, 7, 1, "insert", "end", 42,
        )
        assert duration >= 0.0

    def test_round_counter_bumps_only_on_request(self):
        beats, chan = self.collect_channel()
        for _ in range(3):
            chan.begin("prepare")
            chan.end("prepare")
        assert chan.round == 0
        chan.begin("insert")
        chan.end("insert", 10, bump_round=True)
        assert chan.round == 1

    def test_end_without_begin_is_harmless(self):
        beats, chan = self.collect_channel()
        chan.end("select")
        assert beats[0][5] == "end" and beats[0][7] == 0.0


class TestBeatTransport:
    def test_local_sink_roundtrip(self):
        token = create_local_sink()
        try:
            local_sink_send(token, ("beat", 0, 0, 0, "insert", "end", 5, 0.1, 1.0))
            drained = drain_local_sink(token)
            assert len(drained) == 1
            assert drain_local_sink(token) == []
        finally:
            close_local_sink(token)

    def test_send_to_closed_sink_is_dropped(self):
        token = create_local_sink()
        close_local_sink(token)
        local_sink_send(token, ("beat",))  # must not raise

    def test_drain_splits_beats_from_logs(self, caplog):
        import logging

        beat = ("beat", 1, 0, 2, "insert", "end", 3, 0.01, 5.0)
        record = (logging.WARNING, "repro.test", "late warning", 1, 0, 0.0)
        with caplog.at_level(logging.WARNING, logger="repro"):
            beats = drain_beat_messages([beat, ("log", record)])
        assert beats == [beat]
        assert any("late warning" in message for message in caplog.messages)

    def test_wait_beat_is_noop_outside_workers(self):
        worker_wait_beat()  # coordinator process: no queue registered

    def test_drain_waits_for_the_beats_a_reply_announced(self):
        from repro.network import ProcessComm

        with ProcessComm(2) as comm:
            handle = comm.create_pe_state(empty_state)
            comm.run_per_pe(handle, beat_burst_kernel, [(300,)] * 2)
            assert comm._beats_announced == [300, 300]
            messages = comm.drain_beats(replay_logs=False, settle=30.0)
        assert sum(message[0] == "beat" for message in messages) == 600


class TestResolveHealth:
    def test_none_and_false_disable(self):
        assert resolve_health(None) is None
        assert resolve_health(False) is None

    def test_on_stall_without_health_rejected(self):
        with pytest.raises(ValueError, match="health"):
            resolve_health(None, on_stall="recover")

    def test_true_builds_default_monitor(self):
        monitor = resolve_health(True)
        assert isinstance(monitor, HealthMonitor)
        assert monitor.config.on_stall == "warn"

    def test_config_and_policy_override(self):
        cfg = HealthConfig(min_deadline=9.0)
        monitor = resolve_health(cfg, on_stall="raise")
        assert monitor.config is cfg
        assert monitor.config.on_stall == "raise"

    def test_monitor_passthrough_adopts_registry(self):
        registry = MetricsRegistry()
        monitor = HealthMonitor()
        assert resolve_health(monitor, registry=registry) is monitor
        assert monitor.registry is registry

    def test_invalid_argument_rejected(self):
        with pytest.raises(TypeError, match="health"):
            resolve_health("yes")
        with pytest.raises(TypeError, match="health"):
            DistributedSamplingRun("ours", health="yes", **RUN_KWARGS)


class TestStallError:
    def test_message_carries_rank_phase_and_silence(self):
        err = StallError(2, "insert", 3.5)
        assert err.rank == 2 and err.phase == "insert"
        assert "rank 2" in str(err) and "insert" in str(err) and "3.50" in str(err)

    def test_between_phases_wording(self):
        assert "between phases" in str(StallError(0, None, 1.0))


# ---------------------------------------------------------------------------
# live integration (both backends)
# ---------------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("comm", ["sim", "process"])
    @pytest.mark.parametrize("stream_source", ["coordinator", "worker"])
    def test_sample_ids_identical_with_health_on_off(self, stream_source, comm):
        baseline = run_sample_ids(stream_source, None, comm=comm)
        monitored = run_sample_ids(stream_source, True, comm=comm)
        off = run_sample_ids(stream_source, False, comm=comm)
        assert np.array_equal(baseline, monitored)
        assert np.array_equal(baseline, off)


class TestLiveMonitoring:
    @pytest.fixture(params=["sim", "process"])
    def finished_run(self, request):
        with DistributedSamplingRun(
            "ours", health=True, comm=request.param, k=40, p=4, batch_size=150, seed=3
        ) as run:
            run.run(ROUNDS)
            yield run

    def test_all_ranks_ok_after_clean_run(self, finished_run):
        status = finished_run.health.status()
        assert status["status"] == "ok" and status["healthy"]
        assert status["p"] == 4
        assert all(rank["state"] == "ok" for rank in status["ranks"].values())

    def test_beats_flow_and_rounds_are_counted(self, finished_run):
        finished_run.health._drain_once()
        status = finished_run.health.status()
        assert status["heartbeats"] > 0
        for rank in status["ranks"].values():
            assert rank["beats"] > 0
            assert rank["round"] == ROUNDS
            assert rank["items"] > 0

    def test_status_covers_beats_still_in_flight(self):
        # each command reply echoes its rank's beat count; status() waits
        # until that many beats per rank have come off the queue
        with DistributedSamplingRun("ours", health=True, comm="process", **RUN_KWARGS) as run:
            run.run(2)
            before = {rank: view["items"] for rank, view in run.health.status()["ranks"].items()}
            run.comm.run_per_pe(run.sampler._handle, beat_burst_kernel, [(50,)] * 2)
            after = run.health.status()["ranks"]
        assert all(after[rank]["items"] == items + 50 for rank, items in before.items())

    def test_skew_gauge_exported(self, finished_run):
        # status() drains every beat the finished rounds' replies announced
        finished_run.health.status()
        finished_run.health._update_registry()
        text = finished_run.health.registry.exposition()
        assert "repro_straggler_skew" in text
        # a loaded machine can legitimately classify a rank as a transient
        # straggler (the EWMA skew is real), so don't demand ok == p; the
        # contract is that every rank is accounted for and none is broken
        assert "repro_ranks_ok " in text
        states = [
            rank["state"] for rank in finished_run.health.status()["ranks"].values()
        ]
        assert len(states) == 4
        assert all(state in ("ok", "straggler") for state in states)
        skew = finished_run.health.skew_by_phase()
        assert skew, "phase EWMAs should produce at least one skew entry"
        assert all(ratio >= 1.0 for ratio in skew.values())

    def test_clean_run_detects_no_stalls(self, finished_run):
        metrics = finished_run.metrics
        assert metrics.stalls == 0
        assert finished_run.health.watchdog_kills == 0
        assert metrics.as_dict()["stalls"] == 0

    def test_registry_shared_with_tracer(self):
        with DistributedSamplingRun(
            "ours", health=True, trace=True, comm="sim", **RUN_KWARGS
        ) as run:
            run.run(2)
            assert run.health.registry is run.trace.registry

    def test_run_metrics_roundtrip_stall_counters(self):
        from repro.runtime.metrics import RunMetrics

        metrics = RunMetrics(p=2, k=10, algorithm="ours")
        metrics.stalls = 3
        metrics.stragglers_detected = 1
        clone = RunMetrics.from_dict(metrics.as_dict())
        assert clone.stalls == 3 and clone.stragglers_detected == 1
