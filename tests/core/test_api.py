"""Tests for the high-level convenience API."""

import numpy as np
import pytest

import repro
from repro import DistributedSamplingRun, ReservoirSampler, make_distributed_sampler
from repro.core import (
    CentralizedGatherSampler,
    DistributedReservoirSampler,
    VariableSizeReservoirSampler,
)
from repro.network import SimComm
from repro.selection import MultiPivotSelection, SinglePivotSelection
from repro.stream import MiniBatchStream


class TestReservoirSamplerFacade:
    def test_weighted_feed_and_sample(self, rng):
        sampler = ReservoirSampler(k=10, weighted=True, seed=1)
        sampler.feed(np.arange(100), rng.uniform(1, 5, size=100))
        assert sampler.items_seen == 100
        assert len(sampler.sample_ids()) == 10
        assert sampler.threshold is not None

    def test_uniform_mode(self):
        sampler = ReservoirSampler(k=5, weighted=False, seed=2)
        sampler.feed(np.arange(50))
        assert len(sampler.sample_ids()) == 5

    def test_add_single_items(self):
        sampler = ReservoirSampler(k=3, seed=3)
        assert sampler.add(1, 2.0)
        assert sampler.size == 1

    def test_feed_defaults_to_unit_weights(self):
        sampler = ReservoirSampler(k=4, seed=4)
        sampler.feed([1, 2, 3, 4, 5])
        assert sampler.items_seen == 5

    def test_feed_batch(self):
        from repro.stream import ItemBatch

        sampler = ReservoirSampler(k=2, seed=5)
        sampler.feed_batch(ItemBatch.from_weights([1.0, 2.0, 3.0]))
        assert sampler.items_seen == 3

    def test_sample_with_keys(self):
        sampler = ReservoirSampler(k=2, seed=6)
        sampler.feed([1, 2, 3], [1.0, 1.0, 1.0])
        triples = sampler.sample_with_keys()
        assert len(triples) == 2
        assert all(len(t) == 3 for t in triples)


class TestFactory:
    def test_ours(self):
        sampler = make_distributed_sampler("ours", 10, SimComm(4))
        assert isinstance(sampler, DistributedReservoirSampler)
        assert isinstance(sampler.selection, SinglePivotSelection)

    def test_ours_with_pivot_count(self):
        sampler = make_distributed_sampler("ours-8", 10, SimComm(4))
        assert isinstance(sampler.selection, MultiPivotSelection)
        assert sampler.selection.num_pivots == 8
        sampler = make_distributed_sampler("ours-1", 10, SimComm(4))
        assert isinstance(sampler.selection, SinglePivotSelection)

    def test_gather(self):
        sampler = make_distributed_sampler("gather", 10, SimComm(4))
        assert isinstance(sampler, CentralizedGatherSampler)

    def test_variable(self):
        sampler = make_distributed_sampler("ours-variable", 10, SimComm(4), k_hi=25)
        assert isinstance(sampler, VariableSizeReservoirSampler)
        assert sampler.k_lo == 10 and sampler.k_hi == 25

    def test_variable_default_upper_bound(self):
        sampler = make_distributed_sampler("variable", 10, SimComm(4))
        assert sampler.k_hi == 20

    def test_case_insensitive(self):
        assert isinstance(make_distributed_sampler("OURS", 5, SimComm(2)), DistributedReservoirSampler)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_distributed_sampler("coordinator", 10, SimComm(4))

    def test_uniform_flag_passed_through(self):
        sampler = make_distributed_sampler("ours", 10, SimComm(2), weighted=False)
        assert sampler.weighted is False


class TestDistributedSamplingRun:
    def test_run_by_name(self):
        run = DistributedSamplingRun("ours-8", k=20, p=4, batch_size=50, seed=1)
        metrics = run.run(rounds=3)
        assert metrics.num_rounds == 3
        assert metrics.total_items == 600
        assert len(run.sample_ids()) == 20
        assert metrics.simulated_time > 0

    def test_run_with_sampler_object(self):
        sampler = DistributedReservoirSampler(10, SimComm(2), seed=2)
        run = DistributedSamplingRun(sampler, stream=MiniBatchStream(2, 30, seed=3))
        run.run(rounds=2)
        assert run.sampler is sampler
        assert run.metrics.algorithm == "ours"

    def test_mismatched_stream_rejected(self):
        sampler = DistributedReservoirSampler(10, SimComm(2), seed=4)
        with pytest.raises(ValueError):
            DistributedSamplingRun(sampler, stream=MiniBatchStream(3, 10, seed=5))

    def test_communication_summary(self):
        run = DistributedSamplingRun("gather", k=10, p=4, batch_size=20, seed=6)
        run.run(rounds=2)
        summary = run.communication_summary()
        assert summary["messages"] > 0

    def test_zero_rounds(self):
        run = DistributedSamplingRun("ours", k=5, p=2, batch_size=10, seed=7)
        metrics = run.run(rounds=0)
        assert metrics.num_rounds == 0

    def test_sample_items_pairs(self):
        run = DistributedSamplingRun("ours", k=5, p=2, batch_size=20, seed=8)
        run.run(rounds=2)
        items = run.sample_items()
        assert len(items) == 5
        assert all(isinstance(item_id, int) and key > 0 for item_id, key in items)


class TestStreamSourceDerivation:
    """Without ``stream=`` each PE generates its share of the default stream
    in its worker; with one, the coordinator feeds it.  Same sample."""

    @pytest.mark.parametrize("comm", ["sim", "process"])
    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("algorithm", ["ours", "ours-8", "ours-variable", "gather"])
    def test_worker_shards_equal_coordinator_stream(self, algorithm, weighted, comm):
        kwargs = dict(k=25, p=3, batch_size=120, seed=7, weighted=weighted, comm=comm)
        with DistributedSamplingRun(algorithm, **kwargs) as shards:
            shards.run(5)
            shard_ids = shards.sample_ids()
            shard_metrics = shards.metrics
        stream = MiniBatchStream(3, 120, seed=7)
        with DistributedSamplingRun(algorithm, stream=stream, **kwargs) as fed:
            fed.run(5)
            fed_ids = fed.sample_ids()
            fed_metrics = fed.metrics
        assert shards.stream is None and fed.stream is stream
        assert shard_ids.tobytes() == fed_ids.tobytes()
        if comm == "sim":
            assert shard_metrics.simulated_time == fed_metrics.simulated_time

    def test_windowed_lockstep_keeps_a_coordinator_stream(self):
        from repro.stream import TimestampedMiniBatchStream

        with DistributedSamplingRun("ours", k=10, p=2, batch_size=50, window=400) as run:
            run.run(3)
            assert isinstance(run.stream, TimestampedMiniBatchStream)

    def test_auto_batch_size_needs_worker_shards(self):
        with pytest.raises(ValueError, match="auto"):
            DistributedSamplingRun(
                "ours", k=5, p=2, batch_size="auto", stream=MiniBatchStream(2, 10)
            )
        with pytest.raises(ValueError, match="auto"):
            DistributedSamplingRun("ours", k=5, p=2, batch_size="auto", window=100)
        with pytest.raises(ValueError, match="target_round_time"):
            DistributedSamplingRun("ours", k=5, p=2, batch_size=10, target_round_time=0.1)


class TestWarmup:
    def test_warmup_rounds_run_once_and_are_not_recorded(self):
        with DistributedSamplingRun(
            "ours", k=10, p=2, batch_size=40, seed=2, warmup_rounds=3
        ) as run:
            assert run.run(0).num_rounds == 0
            assert run.rounds_completed == 0  # warm-up is lazy
            metrics = run.run(2)
            assert run.rounds_completed == 5
            run.run(1)
        assert metrics.num_rounds == 3
        assert [r.round_index for r in metrics.rounds] == [3, 4, 5]
        assert metrics.total_items == 3 * 2 * 40

    def test_warmup_is_checkpointed_and_resumed(self, tmp_path):
        with DistributedSamplingRun(
            "ours", k=10, p=2, batch_size=40, seed=2, warmup_rounds=2,
            checkpoint_dir=tmp_path, checkpoint_every=1,
        ) as run:
            run.run(2)
            reference = run.sample_ids()
            with DistributedSamplingRun(
                "ours", k=10, p=2, batch_size=40, seed=2, warmup_rounds=2
            ) as longer:
                longer.run(3)
                expected = longer.sample_ids()
        with DistributedSamplingRun.resume(tmp_path) as resumed:
            assert resumed.rounds_completed == 4
            np.testing.assert_array_equal(resumed.sample_ids(), reference)
            resumed.run(1)  # no second warm-up
            assert resumed.rounds_completed == 5
            np.testing.assert_array_equal(resumed.sample_ids(), expected)


class TestTopLevelExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)

    def test_main_classes_exported(self):
        for name in [
            "ReservoirSampler",
            "DistributedReservoirSampler",
            "CentralizedGatherSampler",
            "VariableSizeReservoirSampler",
            "SinglePivotSelection",
            "MultiPivotSelection",
            "SimComm",
            "MachineSpec",
            "MiniBatchStream",
        ]:
            assert hasattr(repro, name), name

    def test_all_list_is_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestStoreThreading:
    """The store backend choice must reach every layer from the facades."""

    def test_reservoir_sampler_store_param(self):
        from repro.core import ReservoirSampler

        sampler = ReservoirSampler(k=10, weighted=True, seed=0, store="merge")
        sampler.feed(np.arange(100), np.ones(100))
        assert len(sampler.sample_ids()) == 10
        uniform = ReservoirSampler(k=5, weighted=False, seed=0, store="btree")
        uniform.feed(np.arange(50))
        assert len(uniform.sample_ids()) == 5

    def test_make_distributed_sampler_store(self):
        from repro.core import make_distributed_sampler
        from repro.network import SimComm

        for algorithm in ("ours", "ours-8", "ours-variable", "gather"):
            for store in ("btree", "merge"):
                sampler = make_distributed_sampler(algorithm, 8, SimComm(2), store=store)
                assert sampler.store == store, (algorithm, store)
        legacy = make_distributed_sampler("ours", 8, SimComm(2), backend="sorted_array")
        assert legacy.store == "merge"

    def test_run_metrics_record_store(self):
        from repro.core import DistributedSamplingRun

        run = DistributedSamplingRun("ours", k=10, p=2, batch_size=30, store="btree", seed=3)
        run.run(2)
        assert run.metrics.store == "btree"
        assert run.metrics.as_dict()["store"] == "btree"
