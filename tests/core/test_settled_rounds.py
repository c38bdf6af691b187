"""No-insert rounds of the distributed sampler.

Once the threshold ``T`` is the largest key of a union of exactly ``k``
keys (it is *settled*), a round whose all-reduced candidate total is
still ``k`` inserted nothing: the union and its max are unchanged.  Such a
round keeps ``T`` and costs one SUM all-reduction — no max-key kernel, no
MAX all-reduction, no prune.  These tests pin that cost, the cases that
must still tighten (a preloaded threshold), and that recovery, resume and
the process backend stay byte-identical across such rounds.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.checkpoint.state import restore_sampler, snapshot_sampler
from repro.core.api import DistributedSamplingRun
from repro.core.distributed import DistributedReservoirSampler
from repro.network import ProcessComm, SimComm
from repro.network.base import Communicator
from repro.stream import ItemBatch, MiniBatchStream

K, P, BATCH, SEED = 4, 2, 50, 5
COLLECTIVES = ("broadcast", "reduce", "allreduce", "gather", "allgather", "scan", "barrier")


class CallLog:
    """Kernels and collectives a communicator runs, recorded by instance patches."""

    def __init__(self, comm) -> None:
        self.calls = []
        run_per_pe = comm.run_per_pe

        def spy_run_per_pe(handle, fn, *args, **kwargs):
            self.calls.append(("run_per_pe", getattr(fn, "__name__", repr(fn))))
            return run_per_pe(handle, fn, *args, **kwargs)

        comm.run_per_pe = spy_run_per_pe
        for name in COLLECTIVES:
            setattr(comm, name, self._spy(name, getattr(comm, name)))

    def _spy(self, name, inner):
        def spy(*args, **kwargs):
            op = args[1] if name == "allreduce" else None
            self.calls.append((name, getattr(op, "name", None)))
            return inner(*args, **kwargs)

        return spy

    def take(self):
        calls, self.calls = self.calls, []
        return calls


NO_INSERT_CALLS = [("run_per_pe", "insert_batch_kernel"), ("allreduce", Communicator.SUM.name)]


def _no_insert_rounds(metrics, start: int = 1):
    return [r.round_index for r in metrics.rounds[start:] if r.total_insertions == 0]


class TestNoInsertRoundCost:
    def test_no_insert_round_issues_one_sum_allreduce_and_no_prune(self):
        comm = SimComm(P)
        sampler = DistributedReservoirSampler(K, comm, seed=SEED)
        stream = MiniBatchStream(P, BATCH, seed=SEED + 1)
        log = CallLog(comm)
        no_insert = 0
        for index in range(150):
            before = sampler.threshold
            metrics = sampler.process_round(stream.next_round().batches)
            calls = log.take()
            if index > 0 and metrics.total_insertions == 0:
                no_insert += 1
                assert calls == NO_INSERT_CALLS, f"round {index}"
                assert sampler.threshold == before
                assert metrics.sample_size == K
                assert "threshold" not in metrics.phase_times
            else:
                assert ("run_per_pe", "prune_kernel") in calls, f"round {index}"
        assert no_insert >= 20

    def test_round_with_insertions_still_selects_and_prunes(self):
        comm = SimComm(P)
        sampler = DistributedReservoirSampler(K, comm, seed=SEED)
        stream = MiniBatchStream(P, BATCH, seed=SEED + 1)
        log = CallLog(comm)
        sampler.process_round(stream.next_round().batches)
        calls = log.take()
        assert ("allreduce", Communicator.MAX.name) in calls
        assert calls[-1] == ("run_per_pe", "prune_kernel")
        assert sampler._threshold_settled

    def test_first_round_after_preload_still_tightens(self):
        comm = SimComm(P)
        sampler = DistributedReservoirSampler(K, comm, seed=SEED)
        sampler.preload(
            [[(0.1, 0), (0.3, 1)], [(0.2, 2), (0.05, 3)]],
            items_seen=1000,
            total_weight=1e4,
            threshold=0.9,
        )
        assert not sampler._threshold_settled
        log = CallLog(comm)
        empty = [ItemBatch.empty()] * P

        sampler.process_round(empty)
        calls = log.take()
        assert ("run_per_pe", "max_key_kernel") in calls
        assert ("allreduce", Communicator.MAX.name) in calls
        assert calls[-1] == ("run_per_pe", "prune_kernel")
        assert sampler.threshold == 0.3  # tightened to the union's max key

        sampler.process_round(empty)
        assert log.take() == NO_INSERT_CALLS
        assert sampler.threshold == 0.3

    def test_below_k_union_is_never_settled(self):
        sampler = DistributedReservoirSampler(50, SimComm(P), seed=SEED)
        stream = MiniBatchStream(P, 10, seed=SEED)
        for _ in range(2):
            sampler.process_round(stream.next_round().batches)
        assert sampler.sample_size() == 40
        assert sampler.threshold is None
        assert not sampler._threshold_settled


class TestSettledFlagCheckpoint:
    def _settled_sampler(self):
        sampler = DistributedReservoirSampler(K, SimComm(P), seed=SEED)
        stream = MiniBatchStream(P, BATCH, seed=SEED)
        for _ in range(3):
            sampler.process_round(stream.next_round().batches)
        assert sampler._threshold_settled
        return sampler

    def test_snapshot_captures_the_flag(self):
        snapshot = snapshot_sampler(self._settled_sampler())
        assert snapshot["driver"]["_threshold_settled"] is True
        fresh = DistributedReservoirSampler(K, SimComm(P), seed=SEED)
        restore_sampler(fresh, snapshot)
        assert fresh._threshold_settled is True

    def test_snapshot_without_the_flag_restores_as_not_settled(self):
        sampler = self._settled_sampler()
        snapshot = snapshot_sampler(sampler)
        del snapshot["driver"]["_threshold_settled"]
        # onto the live (settled) sampler, as worker-death recovery does
        restore_sampler(sampler, snapshot)
        assert sampler._threshold_settled is False
        log = CallLog(sampler.comm)
        sampler.process_round([ItemBatch.empty()] * P)
        assert ("run_per_pe", "prune_kernel") in log.take()
        assert sampler._threshold_settled


# ---------------------------------------------------------------------------
# byte identity across no-insert rounds
# ---------------------------------------------------------------------------
RUN_KWARGS = dict(k=K, p=P, batch_size=BATCH, seed=SEED)


def _undisturbed(rounds: int, comm: str = "sim"):
    with DistributedSamplingRun("ours", comm=comm, **RUN_KWARGS) as run:
        run.run(rounds)
        return run.sample_ids(), sorted(run.sampler.sample_items()), run.metrics


def test_sim_and_process_identical_across_no_insert_rounds():
    sim_ids, sim_items, sim_metrics = _undisturbed(60, "sim")
    proc_ids, proc_items, proc_metrics = _undisturbed(60, "process")
    assert len(_no_insert_rounds(sim_metrics)) >= 10
    assert np.array_equal(sim_ids, proc_ids)
    assert sim_items == proc_items
    assert [r.threshold for r in sim_metrics.rounds] == [r.threshold for r in proc_metrics.rounds]


@pytest.mark.parametrize("comm", ["sim", "process"])
def test_resume_from_a_settled_checkpoint_equals_undisturbed(tmp_path, comm):
    ref_ids, ref_items, ref_metrics = _undisturbed(50)
    no_insert = _no_insert_rounds(ref_metrics)
    # checkpoint right after a no-insert round, so the flag is saved set
    ckpt_round = next(i + 1 for i in no_insert if i >= 20)
    with DistributedSamplingRun("ours", comm=comm, checkpoint_dir=tmp_path, **RUN_KWARGS) as run:
        run.run(ckpt_round)
        assert run.sampler._threshold_settled
        run.save_checkpoint()
    with DistributedSamplingRun.resume(tmp_path) as resumed:
        assert resumed.sampler._threshold_settled
        resumed.run(50 - ckpt_round)
        assert any(r.total_insertions == 0 for r in resumed.metrics.rounds[ckpt_round:])
        assert np.array_equal(resumed.sample_ids(), ref_ids)
        assert sorted(resumed.sampler.sample_items()) == ref_items


def _kill_worker(comm: ProcessComm, rank: int) -> None:
    pid = comm.worker_pids[rank]
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while comm.workers_alive[rank]:
        if time.monotonic() > deadline:  # pragma: no cover - diagnostics
            raise RuntimeError(f"worker {rank} (pid {pid}) survived SIGKILL")
        time.sleep(0.01)


def test_sigkill_recovery_across_no_insert_rounds_equals_undisturbed(tmp_path):
    ref_ids, ref_items, ref_metrics = _undisturbed(50)
    # the replayed rounds (after the round-30 checkpoint) include no-insert rounds
    assert [i for i in _no_insert_rounds(ref_metrics) if i >= 30]
    with ProcessComm(P, mailbox_timeout=5.0, reply_timeout=60.0) as comm:
        run = DistributedSamplingRun(
            "ours", comm=comm, checkpoint_dir=tmp_path, checkpoint_every=10, **RUN_KWARGS
        )
        run.run(36)
        _kill_worker(comm, 1)
        run.run(14)
        assert run.metrics.recoveries == 1
        assert np.array_equal(run.sample_ids(), ref_ids)
        assert sorted(run.sampler.sample_items()) == ref_items
