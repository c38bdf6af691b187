"""Adaptive mini-batch sizing: the MIMD controller and its driver wiring."""

import numpy as np
import pytest

from repro.core import DistributedSamplingRun
from repro.pipeline import BatchSizeAutotuner
from repro.stream.shard import StreamShardSpec, WorkerStreamShard


class TestBatchSizeAutotuner:
    def test_grows_when_rounds_are_fast(self):
        tuner = BatchSizeAutotuner(1024, target_round_time=0.1)
        assert tuner.update(0.01) == 2048
        assert tuner.update(0.01) == 4096
        assert tuner.adjustments == 2

    def test_shrinks_when_rounds_are_slow(self):
        tuner = BatchSizeAutotuner(4096, target_round_time=0.1)
        assert tuner.update(1.0) == 2048
        assert tuner.update(1.0) == 1024

    def test_dead_band_leaves_size_alone(self):
        tuner = BatchSizeAutotuner(4096, target_round_time=0.1, band=0.3)
        assert tuner.update(0.1) is None
        assert tuner.update(0.08) is None
        assert tuner.update(0.125) is None
        assert tuner.size == 4096
        assert tuner.adjustments == 0

    def test_clamped_at_bounds(self):
        tuner = BatchSizeAutotuner(512, target_round_time=0.1, min_size=256, max_size=1024)
        assert tuner.update(1.0) == 256
        assert tuner.update(1.0) is None  # already at min_size
        assert tuner.size == 256
        tuner2 = BatchSizeAutotuner(512, target_round_time=0.1, min_size=256, max_size=1024)
        assert tuner2.update(0.001) == 1024
        assert tuner2.update(0.001) is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BatchSizeAutotuner(0)
        with pytest.raises(ValueError):
            BatchSizeAutotuner(10, band=1.5)
        with pytest.raises(ValueError):
            BatchSizeAutotuner(10, grow=0.5)
        with pytest.raises(ValueError):
            BatchSizeAutotuner(10, min_size=100, max_size=50)


class TestVariableShards:
    def test_fixed_shard_rejects_resize(self):
        shard = WorkerStreamShard(StreamShardSpec(p=2, pe=0, batch_size=100))
        with pytest.raises(ValueError, match="variable=True"):
            shard.set_batch_size(200)

    def test_variable_shard_ids_stay_globally_unique_across_resizes(self):
        shards = [
            WorkerStreamShard(StreamShardSpec(p=2, pe=pe, batch_size=10, variable=True))
            for pe in range(2)
        ]
        seen = set()
        for size in (10, 25, 7, 40):
            for shard in shards:
                shard.set_batch_size(size)
                batch = shard.next_batch()
                assert len(batch) == size
                ids = set(batch.ids.tolist())
                assert not (ids & seen), "variable shards produced duplicate ids"
                seen |= ids

    def test_round_index_counts_delivered_rounds_only(self):
        shard = WorkerStreamShard(StreamShardSpec(p=1, pe=0, batch_size=8))
        assert shard.round_index == 0
        shard.prefetch()
        assert shard.round_index == 0  # generated ahead, but not delivered yet
        shard.next_batch()
        assert shard.round_index == 1

    def test_prefetch_is_transparent(self):
        """A prefetched batch is the exact batch next_batch would produce."""
        spec = StreamShardSpec(p=2, pe=1, batch_size=64, seed=5)
        plain = WorkerStreamShard(spec)
        prefetched = WorkerStreamShard(spec)
        for round_index in range(4):
            if round_index % 2 == 0:
                assert prefetched.prefetch() == 64
                prefetched.prefetch()  # idempotent until consumed
            a = plain.next_batch()
            b = prefetched.next_batch()
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.weights, b.weights)

    def test_stamped_shard_stamps_equal_arrival_indices(self):
        from repro.stream import TimestampedMiniBatchStream

        stream = TimestampedMiniBatchStream(2, 32, seed=9)
        shards = [
            WorkerStreamShard(StreamShardSpec(p=2, pe=pe, batch_size=32, seed=9, stamped=True))
            for pe in range(2)
        ]
        for _ in range(3):
            round_batches = stream.next_round().batches
            for pe, shard in enumerate(shards):
                batch = shard.next_batch()
                np.testing.assert_array_equal(batch.ids, round_batches[pe].ids)
                np.testing.assert_array_equal(batch.stamps, round_batches[pe].stamps)
                np.testing.assert_array_equal(batch.weights, round_batches[pe].weights)


class TestAutoBatchDrivers:
    def test_pipelined_run_auto_resizes(self):
        with DistributedSamplingRun(
            "ours", k=20, p=2, comm="sim", pipeline="relaxed",
            batch_size="auto", warmup_rounds=0, seed=3,
            target_round_time=1e-4,  # far below any real round: forces shrinks
        ) as run:
            run.run(6)
            assert run.autotuner is not None
            assert run.autotuner.adjustments > 0
            assert run.batch_size == run.autotuner.size

    def test_lockstep_run_auto_resizes(self):
        with DistributedSamplingRun(
            "ours", k=20, p=2, comm="sim", batch_size="auto",
            warmup_rounds=0, seed=3, target_round_time=1e9,  # forces growth
        ) as run:
            metrics = run.run(4)
            assert run.batch_size > 4096
        assert metrics.total_items > 0

    def test_auto_sample_is_still_exact_size_k(self):
        with DistributedSamplingRun(
            "ours", k=25, p=2, comm="sim", pipeline="relaxed",
            batch_size="auto", warmup_rounds=1, seed=8, target_round_time=1e-4,
        ) as run:
            run.run(6)
            assert len(run.sample_ids()) == 25

    def test_rejects_unknown_batch_size_string(self):
        for pipeline in ("relaxed", "off"):
            with pytest.raises(ValueError, match="auto"):
                DistributedSamplingRun(
                    "ours", k=5, p=2, comm="sim", batch_size="huge", pipeline=pipeline
                )
