"""Tests for the worker-shard, wall-clock side of the run driver."""

import pytest

from repro.core import DistributedReservoirSampler, DistributedSamplingRun
from repro.network import SimComm
from repro.runtime import RunMetrics


class TestWorkerShardRun:
    def test_sim_backend_round_loop(self):
        with DistributedSamplingRun(
            "ours", k=20, p=2, comm="sim", batch_size=100, warmup_rounds=1, seed=5
        ) as run:
            metrics = run.run(3)
        assert run.stream is None  # no stream= given: worker-local shards
        assert metrics.num_rounds == 3
        assert metrics.total_items == 3 * 2 * 100  # warm-up rounds are not reported
        assert metrics.wall_time > 0.0
        assert metrics.comm_backend == "sim"
        assert run.sampler.items_seen == 4 * 2 * 100  # warm-up consumed the stream too

    def test_process_backend_round_loop(self):
        with DistributedSamplingRun(
            "ours", k=15, p=2, comm="process", batch_size=80, warmup_rounds=0, seed=6
        ) as run:
            metrics = run.run(2)
            ids = run.sample_ids()
        assert metrics.num_rounds == 2
        assert metrics.wall_throughput_total() > 0.0
        assert len(ids) == 15

    def test_run_for_bounds(self):
        with DistributedSamplingRun(
            "ours", k=10, p=2, comm="sim", batch_size=50, warmup_rounds=0, seed=7
        ) as run:
            metrics = run.run_for(1e-9, min_rounds=2, max_rounds=4)
        assert 2 <= metrics.num_rounds <= 4

    def test_run_for_respects_max_rounds(self):
        with DistributedSamplingRun(
            "ours", k=10, p=2, comm="sim", batch_size=50, warmup_rounds=0, seed=7
        ) as run:
            metrics = run.run_for(1e9, max_rounds=3)
        assert metrics.num_rounds == 3

    def test_run_for_uses_wall_time_off_the_simulator(self):
        with DistributedSamplingRun(
            "ours", k=10, p=2, comm="process", batch_size=50, warmup_rounds=0, seed=7
        ) as run:
            metrics = run.run_for(1e-9, min_rounds=0, max_rounds=4)
        # one round's measured wall time already exceeds the budget
        assert metrics.num_rounds == 1
        assert metrics.wall_time > 1e-9

    def test_communication_summary_nonempty(self):
        with DistributedSamplingRun(
            "ours", k=10, p=2, comm="sim", batch_size=50, warmup_rounds=0, seed=8
        ) as run:
            run.run(2)
            assert run.communication_summary()["messages"] > 0

    def test_stream_round_requires_attached_stream(self):
        sampler = DistributedReservoirSampler(5, SimComm(2), seed=0)
        with pytest.raises(RuntimeError, match="attach_worker_stream"):
            sampler.process_stream_round()

    def test_externally_owned_comm_is_not_shut_down(self):
        comm = SimComm(2)
        with DistributedSamplingRun("ours", k=5, comm=comm, batch_size=20, warmup_rounds=0) as run:
            run.run(1)
        # SimComm.shutdown is a no-op anyway; assert ownership bookkeeping
        assert run._owns_comm is False

    def test_gather_baseline_runs_with_and_without_auto_batching(self):
        for batch_size in (50, "auto"):
            with DistributedSamplingRun(
                "gather", k=10, p=2, comm="sim", batch_size=batch_size,
                warmup_rounds=0, seed=4,
            ) as run:
                metrics = run.run(2)
            assert metrics.num_rounds == 2
            assert len(run.sample_ids()) == 10

    def test_invalid_arguments_do_not_leak_workers(self):
        import multiprocessing as mp

        with pytest.raises(ValueError):
            DistributedSamplingRun("no-such-algorithm", k=5, p=2, comm="process", batch_size=20)
        assert not mp.active_children()


class TestWallClockMetrics:
    def test_wall_throughput_without_wall_time_is_zero(self):
        # 0.0, not inf — inf would serialise as the invalid JSON token
        # Infinity in every benchmark's as_dict() output
        metrics = RunMetrics(p=2, k=5, algorithm="ours")
        assert metrics.wall_throughput_total() == 0.0

    def test_as_dict_contains_wall_fields(self):
        metrics = RunMetrics(p=2, k=5, algorithm="ours", comm_backend="process", wall_time=2.0)
        payload = metrics.as_dict()
        assert payload["wall_time"] == 2.0
        assert payload["comm_backend"] == "process"
        assert "wall_throughput_total" in payload

    @pytest.mark.parametrize("with_stream", [False, True])
    def test_every_run_measures_wall_time(self, with_stream):
        """Every run measures wall time, whether coordinator-fed or not."""
        from repro.stream import MiniBatchStream

        stream = MiniBatchStream(2, 100, seed=3) if with_stream else None
        with DistributedSamplingRun(
            "ours", k=10, p=2, batch_size=100, seed=3, stream=stream, trace=True
        ) as run:
            metrics = run.run(6)
            histogram = run.trace.registry.get("repro_round_seconds")
        assert metrics.wall_time > 0.0
        assert metrics.wall_throughput_total() > 0.0
        assert histogram is not None and histogram.count == 6
