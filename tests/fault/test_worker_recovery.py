"""Worker-death recovery: the acceptance tests of the fault-tolerance PR.

Every test compares the recovered run's final ``sample_ids()`` against an
*undisturbed* reference run with identical parameters — recovery must be
invisible in the output, byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import DistributedSamplingRun
from repro.network.process_comm import FaultSpec, WorkerError
from repro.stream import MiniBatchStream

from conftest import kill_worker, shm_segment_names

P = 3
RUN_KWARGS = dict(k=24, p=P, batch_size=150, seed=5)


def reference_ids(rounds: int, **overrides) -> np.ndarray:
    kwargs = {**RUN_KWARGS, **overrides}
    with DistributedSamplingRun("ours", comm="process", **kwargs) as ref:
        ref.run(rounds)
        return ref.sample_ids()


class TestSigkillRecovery:
    def test_sigkilled_worker_is_respawned_and_sample_is_byte_identical(
        self, make_process_comm, checkpoint_dir
    ):
        ref = reference_ids(6)
        comm = make_process_comm(P)
        run = DistributedSamplingRun(
            "ours", comm=comm, checkpoint_dir=checkpoint_dir, checkpoint_every=2, **RUN_KWARGS
        )
        run.run(3)
        kill_worker(comm, 1)
        run.run(3)

        assert run.metrics.recoveries == 1
        assert comm.workers_alive == [True] * P
        recovered = [r.recovered_pes for r in run.metrics.rounds if r.recovered_pes]
        assert recovered == [[1]]
        assert np.array_equal(run.sample_ids(), ref)

    def test_two_sequential_deaths_both_recovered(self, make_process_comm, checkpoint_dir):
        ref = reference_ids(9)
        comm = make_process_comm(P)
        run = DistributedSamplingRun(
            "ours", comm=comm, checkpoint_dir=checkpoint_dir, checkpoint_every=2, **RUN_KWARGS
        )
        run.run(3)
        kill_worker(comm, 0)
        run.run(3)
        kill_worker(comm, 2)
        run.run(3)

        assert run.metrics.recoveries == 2
        assert comm.workers_alive == [True] * P
        assert np.array_equal(run.sample_ids(), ref)

    def test_death_without_checkpoint_dir_reraises(self, make_process_comm):
        comm = make_process_comm(P)
        run = DistributedSamplingRun("ours", comm=comm, **RUN_KWARGS)
        run.run(2)
        kill_worker(comm, 1)
        with pytest.raises(WorkerError):
            run.run(2)

    def test_epoch_is_bumped_by_recovery(self, make_process_comm, checkpoint_dir):
        comm = make_process_comm(P)
        run = DistributedSamplingRun(
            "ours", comm=comm, checkpoint_dir=checkpoint_dir, checkpoint_every=1, **RUN_KWARGS
        )
        run.run(2)
        assert comm.epoch == 0
        kill_worker(comm, 2)
        run.run(2)
        assert comm.epoch == 1


class TestRecoveryInEveryStreamMode:
    """Every run mode shares one round loop, so every mode recovers."""

    @staticmethod
    def mode_kwargs(mode: str) -> dict:
        if mode == "coordinator":
            return {"stream": MiniBatchStream(P, 150, seed=5)}
        if mode == "worker":  # worker stream shards; the warm-up is replayed too
            return {"warmup_rounds": 1}
        return {"pipeline": "strict", "warmup_rounds": 1}

    @pytest.mark.parametrize("mode", ["coordinator", "worker", "strict"])
    def test_sigkill_recovers_byte_identical(self, mode, make_process_comm, checkpoint_dir):
        ref = reference_ids(6, **self.mode_kwargs(mode))
        comm = make_process_comm(P)
        run = DistributedSamplingRun(
            "ours",
            comm=comm,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=2,
            **RUN_KWARGS,
            **self.mode_kwargs(mode),
        )
        run.run(3)
        kill_worker(comm, 1)
        run.run(3)

        assert run.metrics.recoveries == 1
        assert run.metrics.num_rounds == 6
        assert comm.workers_alive == [True] * P
        assert np.array_equal(run.sample_ids(), ref)


class TestInjectedFaults:
    def test_die_in_kernel_recovers_byte_identical(self, make_process_comm, checkpoint_dir):
        ref = reference_ids(6)
        comm = make_process_comm(P, fault=FaultSpec(rank=2, action="die_in_kernel", after_calls=25))
        run = DistributedSamplingRun(
            "ours", comm=comm, checkpoint_dir=checkpoint_dir, checkpoint_every=2, **RUN_KWARGS
        )
        run.run(6)
        assert run.metrics.recoveries == 1
        assert comm.workers_alive == [True] * P
        assert np.array_equal(run.sample_ids(), ref)

    def test_dropped_message_recovers_without_any_death(self, make_process_comm, checkpoint_dir):
        ref = reference_ids(6)
        comm = make_process_comm(
            P, mailbox_timeout=1.5, fault=FaultSpec(rank=1, action="drop_send", after_calls=10)
        )
        run = DistributedSamplingRun(
            "ours", comm=comm, checkpoint_dir=checkpoint_dir, checkpoint_every=2, **RUN_KWARGS
        )
        run.run(6)
        # the lost message surfaced as peer timeouts, not a worker death:
        # recover() found nobody to respawn but still replayed cleanly
        assert run.metrics.recoveries == 1
        assert comm.workers_alive == [True] * P
        assert all(r.recovered_pes == [] for r in run.metrics.rounds)
        assert np.array_equal(run.sample_ids(), ref)

    def test_delayed_reply_completes_without_recovery(self, make_process_comm, checkpoint_dir):
        ref = reference_ids(6)
        comm = make_process_comm(
            P, fault=FaultSpec(rank=0, action="delay_reply", after_calls=5, seconds=0.2)
        )
        # health on with the default policy: a short delay must at most be
        # *warned* about, never killed — on_stall="warn" is the default
        run = DistributedSamplingRun(
            "ours",
            comm=comm,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=2,
            health=True,
            **RUN_KWARGS,
        )
        assert run.health.config.on_stall == "warn"
        run.run(6)
        assert run.metrics.recoveries == 0
        assert run.health.watchdog_kills == 0
        assert np.array_equal(run.sample_ids(), ref)

    def test_unknown_fault_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(rank=0, action="segfault")


class TestStallWatchdog:
    """A hang (not a death) escalated by the watchdog into recovery."""

    #: fast watchdog: 50 ms polls, ~1 s stall deadline
    WATCHDOG = dict(poll_interval=0.05, min_deadline=0.8, grace=0.2)
    #: the hang: rank 0 goes silent mid-round for far longer than any test
    #: would wait — only a watchdog kill can unstick the run
    HANG = dict(rank=0, action="delay_reply", after_calls=12, seconds=60.0)

    def test_hang_is_detected_and_recovered_byte_identical(
        self, make_process_comm, checkpoint_dir
    ):
        from repro.obs.health import HealthConfig

        ref = reference_ids(6)
        comm = make_process_comm(P, fault=FaultSpec(**self.HANG))
        run = DistributedSamplingRun(
            "ours",
            comm=comm,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=2,
            health=HealthConfig(on_stall="recover", **self.WATCHDOG),
            **RUN_KWARGS,
        )
        run.run(6)

        assert run.metrics.recoveries == 1
        assert run.metrics.stalls == 1
        assert run.health.watchdog_kills == 1
        # the watchdog must kill the hung rank, not a peer blocked on it
        recovered = [r.recovered_pes for r in run.metrics.rounds if r.recovered_pes]
        assert recovered == [[0]]
        assert comm.workers_alive == [True] * P
        assert np.array_equal(run.sample_ids(), ref)

    def test_hang_with_on_stall_raise_surfaces_stall_error(
        self, make_process_comm, checkpoint_dir
    ):
        from repro.obs.health import HealthConfig, StallError

        comm = make_process_comm(P, fault=FaultSpec(**self.HANG))
        run = DistributedSamplingRun(
            "ours",
            comm=comm,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=2,
            health=HealthConfig(on_stall="raise", **self.WATCHDOG),
            **RUN_KWARGS,
        )
        with pytest.raises(StallError) as excinfo:
            run.run(6)
        assert excinfo.value.rank == 0


def _warn_then_die_kernel(state):
    import logging
    import os
    import time

    logging.getLogger("repro.worker.test").warning("disk almost full on this rank")
    # eager forwarding rides the beat queue's feeder thread; give it a
    # moment to flush — the guarantee is best-effort crash context
    time.sleep(0.2)
    os._exit(1)


class TestEagerLogForwarding:
    def test_warning_logged_before_death_reaches_coordinator(
        self, make_process_comm, checkpoint_dir, caplog
    ):
        import logging

        comm = make_process_comm(P)
        run = DistributedSamplingRun(
            "ours", comm=comm, checkpoint_dir=checkpoint_dir, checkpoint_every=2, **RUN_KWARGS
        )
        run.run(2)
        with caplog.at_level(logging.WARNING, logger="repro"):
            with pytest.raises(WorkerError):
                comm.run_per_pe(run.sampler._handle, _warn_then_die_kernel, None)
            # the buffered copy died with the workers; recover() drains the
            # eagerly-forwarded ≥WARNING copies off the beat queue
            comm.recover()
        assert any("disk almost full" in message for message in caplog.messages)


class TestShmHygiene:
    def test_no_segments_leak_after_recovered_shm_run(self, make_process_comm, checkpoint_dir):
        before = shm_segment_names()
        ref = reference_ids(6, batch_size=400, payload_transport="shm", shm_min_bytes=64)
        comm = make_process_comm(
            P,
            payload_transport="shm",
            shm_min_bytes=64,
            fault=FaultSpec(rank=1, action="die_in_kernel", after_calls=25),
        )
        run = DistributedSamplingRun(
            "ours",
            comm=comm,
            batch_size=400,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=2,
            **{k: v for k, v in RUN_KWARGS.items() if k != "batch_size"},
        )
        run.run(6)
        assert run.metrics.recoveries == 1
        assert np.array_equal(run.sample_ids(), ref)
        comm.shutdown()
        assert shm_segment_names() == before
