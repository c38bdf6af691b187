"""Store-backend and kernel-tier equivalence: identical samples, always.

Key generation is store-independent (the per-PE RNG streams only feed the
key/jump kernels), so for the same seed the two store backends see the same
candidate keys and must end up with byte-identical reservoirs.  This is the
property the ablation study relies on, and it pins down any divergence a
store refactor could introduce.

The same contract extends to the kernel tiers: the compiled ``"jit"`` tier
replays the numpy reference kernels draw for draw, so every suite here is
parametrized over ``kernel_tier`` and a dedicated class pins the cross-tier
byte-identity on the sequential / window / decay / pipeline paths too.  The
jit legs skip themselves where numba is not installed (the CI matrix runs
one leg with numba and one without).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CentralizedGatherSampler,
    DistributedReservoirSampler,
    DistributedUniformReservoirSampler,
    LocalReservoir,
    SequentialUniformReservoir,
    SequentialWeightedReservoir,
    VariableSizeReservoirSampler,
    numba_available,
)
from repro.network import SimComm
from repro.stream import MiniBatchStream

requires_numba = pytest.mark.skipif(not numba_available(), reason="numba not installed")

#: kernel-tier axis — the compiled leg self-skips without numba
TIERS = ["numpy", pytest.param("jit", marks=requires_numba)]


def run_sampler(factory, *, p=4, batch=100, rounds=4, stream_seed=11):
    sampler = factory()
    stream = MiniBatchStream(p, batch, seed=stream_seed)
    for _ in range(rounds):
        sampler.process_round(stream.next_round().batches)
    return sampler


def state_of(sampler):
    return (
        sorted(sampler.sample_ids().tolist()),
        None if sampler.threshold is None else pytest.approx(sampler.threshold),
        sampler.sample_size(),
    )


class TestDistributedEquivalence:
    @pytest.mark.parametrize("kernel_tier", TIERS)
    @pytest.mark.parametrize("seed", [0, 3, 12345])
    def test_weighted_samples_identical(self, seed, kernel_tier):
        states = {
            store: state_of(
                run_sampler(
                    lambda: DistributedReservoirSampler(
                        25, SimComm(4), seed=seed, store=store, kernel_tier=kernel_tier
                    ),
                    stream_seed=seed + 50,
                )
            )
            for store in ("btree", "merge")
        }
        assert states["btree"] == states["merge"]

    @pytest.mark.parametrize("kernel_tier", TIERS)
    @pytest.mark.parametrize("seed", [1, 8])
    def test_uniform_samples_identical(self, seed, kernel_tier):
        states = {
            store: state_of(
                run_sampler(
                    lambda: DistributedUniformReservoirSampler(
                        15, SimComm(3), seed=seed, store=store, kernel_tier=kernel_tier
                    ),
                    p=3,
                    stream_seed=seed + 70,
                )
            )
            for store in ("btree", "merge")
        }
        assert states["btree"] == states["merge"]

    def test_local_thresholding_path_identical(self):
        # a huge first batch exercises the Section-5 chunked policy path
        states = {}
        for store in ("btree", "merge"):
            sampler = DistributedReservoirSampler(
                10, SimComm(2), seed=4, store=store, local_thresholding=True
            )
            stream = MiniBatchStream(2, 3000, seed=5)
            sampler.process_round(stream.next_round().batches)
            states[store] = state_of(sampler)
        assert states["btree"] == states["merge"]

    def test_variable_size_sampler_identical(self):
        states = {
            store: state_of(
                run_sampler(
                    lambda: VariableSizeReservoirSampler(
                        20, 40, SimComm(4), seed=6, store=store
                    ),
                    stream_seed=77,
                )
            )
            for store in ("btree", "merge")
        }
        assert states["btree"] == states["merge"]

    def test_gather_root_store_identical(self):
        states = {
            store: state_of(
                run_sampler(
                    lambda: CentralizedGatherSampler(18, SimComm(4), seed=9, store=store),
                    stream_seed=91,
                )
            )
            for store in ("btree", "merge")
        }
        assert states["btree"] == states["merge"]


class TestSequentialStoreEquivalence:
    def test_weighted_store_backends_identical(self, rng):
        ids = np.arange(500)
        weights = rng.uniform(0.1, 5.0, size=500)
        samples = {}
        for store in ("btree", "merge"):
            sampler = SequentialWeightedReservoir(30, seed=21, store=store)
            from repro.stream import ItemBatch

            for start in range(0, 500, 100):
                sampler.process(
                    ItemBatch(ids=ids[start : start + 100], weights=weights[start : start + 100])
                )
            samples[store] = sorted(sampler.sample_ids().tolist())
            assert sampler.size == 30
            assert sampler.items_seen == 500
        assert samples["btree"] == samples["merge"]

    def test_uniform_store_backends_identical(self):
        from repro.stream import ItemBatch

        samples = {}
        for store in ("btree", "merge"):
            sampler = SequentialUniformReservoir(25, seed=33, store=store)
            for start in range(0, 400, 80):
                batch = np.arange(start, start + 80)
                sampler.process(ItemBatch(ids=batch, weights=np.ones(80)))
            samples[store] = sorted(sampler.sample_ids().tolist())
        assert samples["btree"] == samples["merge"]


@requires_numba
class TestKernelTierByteIdentity:
    """``kernel_tier="jit"`` must reproduce the numpy tier **bit for bit**
    on every ingestion path — distributed, sequential, window, decay and
    pipelined.  Tier selection may only ever change the cost of a run,
    never its sample."""

    def _distributed_states(self, factory, *, p=4, rounds=4, batch=150, stream_seed=7):
        states = {}
        for tier in ("numpy", "jit"):
            sampler = factory(tier)
            stream = MiniBatchStream(p, batch, seed=stream_seed)
            thresholds = [
                sampler.process_round(stream.next_round().batches).threshold
                for _ in range(rounds)
            ]
            states[tier] = (sorted(sampler.sample_items()), thresholds)
        return states

    @pytest.mark.parametrize("seed", [2, 19])
    def test_distributed_weighted_identical_across_tiers(self, seed):
        states = self._distributed_states(
            lambda tier: DistributedReservoirSampler(
                25, SimComm(4), seed=seed, kernel_tier=tier
            ),
            stream_seed=seed + 5,
        )
        assert states["numpy"] == states["jit"]

    def test_distributed_uniform_identical_across_tiers(self):
        states = self._distributed_states(
            lambda tier: DistributedUniformReservoirSampler(
                20, SimComm(3), seed=4, kernel_tier=tier
            ),
            p=3,
        )
        assert states["numpy"] == states["jit"]

    def test_variable_size_identical_across_tiers(self):
        states = self._distributed_states(
            lambda tier: VariableSizeReservoirSampler(
                15, 35, SimComm(4), seed=6, kernel_tier=tier
            )
        )
        assert states["numpy"] == states["jit"]

    def test_gather_identical_across_tiers(self):
        states = self._distributed_states(
            lambda tier: CentralizedGatherSampler(18, SimComm(4), seed=9, kernel_tier=tier)
        )
        assert states["numpy"] == states["jit"]

    def test_sequential_weighted_identical_across_tiers(self):
        from repro.stream import ItemBatch

        rng = np.random.default_rng(12)
        weights = rng.uniform(0.1, 5.0, size=600)
        samples = {}
        for tier in ("numpy", "jit"):
            sampler = SequentialWeightedReservoir(30, seed=21, store="merge", kernel_tier=tier)
            for start in range(0, 600, 120):
                sampler.process(
                    ItemBatch(
                        ids=np.arange(start, start + 120),
                        weights=weights[start : start + 120],
                    )
                )
            samples[tier] = (sampler.sample_with_keys(), sampler.threshold)
        assert samples["numpy"] == samples["jit"]

    def test_decayed_identical_across_tiers(self):
        from repro.stream import ItemBatch
        from repro.window import DecayedReservoir

        samples = {}
        for tier in ("numpy", "jit"):
            sampler = DecayedReservoir(20, 0.995, seed=8, kernel_tier=tier)
            for start in range(0, 500, 100):
                sampler.process(
                    ItemBatch(
                        ids=np.arange(start, start + 100),
                        weights=np.linspace(0.5, 3.0, 100),
                    )
                )
            samples[tier] = sampler.sample_with_keys()
        assert samples["numpy"] == samples["jit"]

    def test_windowed_identical_across_tiers(self):
        from repro.core import make_distributed_sampler

        samples = {}
        for tier in ("numpy", "jit"):
            sampler = make_distributed_sampler(
                "ours", 20, SimComm(2), seed=3, window=600, kernel_tier=tier
            )
            stream = MiniBatchStream(2, 200, seed=5)
            for _ in range(5):
                sampler.process_round(stream.next_round().batches)
            samples[tier] = np.sort(sampler.sample_ids())
        np.testing.assert_array_equal(samples["numpy"], samples["jit"])

    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    def test_pipelined_identical_across_tiers(self, mode):
        from repro.core import DistributedSamplingRun

        samples = {}
        for tier in ("numpy", "jit"):
            with DistributedSamplingRun(
                "ours",
                comm="sim",
                k=30,
                p=2,
                batch_size=200,
                warmup_rounds=1,
                seed=11,
                pipeline=mode,
                kernel_tier=tier,
            ) as run:
                run.run(4)
                samples[tier] = (np.sort(run.sample_ids()), run.sampler.threshold)
        np.testing.assert_array_equal(samples["numpy"][0], samples["jit"][0])
        assert samples["numpy"][1] == samples["jit"][1]


class TestLocalReservoirPropertyEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
                min_size=0,
                max_size=30,
            ),
            min_size=1,
            max_size=6,
        ),
        prune=st.integers(min_value=1, max_value=40),
        threshold=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    )
    def test_random_batch_sequences_agree(self, batches, prune, threshold):
        """Arbitrary interleavings of batch-insert / threshold-prefilter /
        prune leave both backends with identical reservoirs."""
        reservoirs = {b: LocalReservoir(backend=b) for b in ("btree", "merge")}
        next_id = 0
        seen = set()
        for i, batch in enumerate(batches):
            # keep keys globally unique: with tied keys the two backends may
            # legitimately order the tied *ids* differently
            unique = [key for key in batch if key not in seen and not seen.add(key)]
            keys = np.asarray(unique, dtype=np.float64)
            ids = np.arange(next_id, next_id + keys.shape[0])
            next_id += keys.shape[0]
            thr = threshold if i % 2 else None
            for reservoir in reservoirs.values():
                reservoir.insert_batch(keys, ids, threshold=thr)
        for reservoir in reservoirs.values():
            reservoir.prune_to_rank(prune)
        a, b = reservoirs["btree"], reservoirs["merge"]
        assert len(a) == len(b)
        np.testing.assert_allclose(a.keys_array(), b.keys_array())
        np.testing.assert_array_equal(a.item_ids(), b.item_ids())
        if len(a):
            rank = max(1, len(a) // 2)
            assert a.kth_key(rank) == b.kth_key(rank)
            assert a.count_le(0.5) == b.count_le(0.5)
