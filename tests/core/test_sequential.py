"""Tests for the sequential reservoir samplers."""

import numpy as np
import pytest

from repro.core import SequentialUniformReservoir, SequentialWeightedReservoir
from repro.core.sequential import (
    dense_uniform_sample,
    dense_weighted_sample,
    ingest_keyed_batch,
)
from repro.core.store import make_store
from repro.stream import ItemBatch
from repro.window import DecayedReservoir


class _PeakSizeDict(dict):
    """A dict that remembers the most entries it ever held."""

    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


class TestWeightedReservoirBasics:
    def test_sample_size_is_min_k_n(self, rng):
        sampler = SequentialWeightedReservoir(k=10, seed=1)
        for i in range(5):
            sampler.insert(i, 1.0)
        assert sampler.size == 5
        assert sampler.threshold is None
        for i in range(5, 50):
            sampler.insert(i, 1.0)
        assert sampler.size == 10
        assert sampler.threshold is not None

    def test_sample_ids_are_unique_and_seen(self):
        sampler = SequentialWeightedReservoir(k=20, seed=2)
        for i in range(200):
            sampler.insert(i, float(i % 7 + 1))
        ids = sampler.sample_ids()
        assert len(ids) == 20
        assert len(set(ids.tolist())) == 20
        assert set(ids.tolist()) <= set(range(200))

    def test_threshold_is_max_key(self):
        sampler = SequentialWeightedReservoir(k=5, seed=3)
        for i in range(100):
            sampler.insert(i, 1.0)
        keys = [key for key, _, _ in sampler.sample_with_keys()]
        assert sampler.threshold == pytest.approx(max(keys))

    def test_threshold_decreases_over_time(self):
        sampler = SequentialWeightedReservoir(k=10, seed=4)
        thresholds = []
        for i in range(2000):
            sampler.insert(i, 1.0)
            if sampler.threshold is not None and i % 200 == 0:
                thresholds.append(sampler.threshold)
        assert thresholds == sorted(thresholds, reverse=True)

    def test_counters(self):
        sampler = SequentialWeightedReservoir(k=5, seed=5)
        batch = ItemBatch.from_weights(np.ones(50))
        inserted = sampler.process(batch)
        assert sampler.items_seen == 50
        assert sampler.total_weight == pytest.approx(50.0)
        assert inserted == sampler.insertions
        assert inserted >= 5

    def test_insertions_grow_logarithmically(self):
        # Efraimidis-Spirakis: expected insertions ~ k * ln(n / k)
        k, n = 20, 20_000
        sampler = SequentialWeightedReservoir(k=k, seed=6)
        for i in range(n):
            sampler.insert(i, 1.0)
        expected = k * (1 + np.log(n / k))
        assert sampler.insertions < 4 * expected
        assert sampler.insertions >= k

    def test_rejects_non_positive_weight(self):
        sampler = SequentialWeightedReservoir(k=2, seed=0)
        with pytest.raises(ValueError):
            sampler.insert(1, 0.0)
        with pytest.raises(ValueError):
            sampler.insert(1, -1.0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SequentialWeightedReservoir(k=0)

    def test_extend_interface(self):
        sampler = SequentialWeightedReservoir(k=3, seed=1)
        sampler.extend((i, 1.0) for i in range(10))
        assert sampler.items_seen == 10

    def test_sample_returns_id_weight_pairs(self):
        sampler = SequentialWeightedReservoir(k=3, seed=1)
        sampler.insert(7, 2.5)
        assert sampler.sample() == [(7, 2.5)]


class TestUniformReservoirBasics:
    def test_sample_size(self):
        sampler = SequentialUniformReservoir(k=10, seed=1)
        for i in range(100):
            sampler.insert(i)
        assert sampler.size == 10
        assert sampler.items_seen == 100

    def test_filling_phase(self):
        sampler = SequentialUniformReservoir(k=10, seed=1)
        for i in range(7):
            assert sampler.insert(i)
        assert sampler.sample_ids().tolist() != []
        assert sampler.threshold is None

    def test_process_batch_ignores_weights(self):
        sampler = SequentialUniformReservoir(k=5, seed=2)
        sampler.process(ItemBatch.from_weights([10.0, 0.1, 5.0, 1.0, 2.0, 3.0]))
        assert sampler.items_seen == 6

    def test_skips_keep_items_seen_accurate(self):
        sampler = SequentialUniformReservoir(k=5, seed=3)
        for i in range(10_000):
            sampler.insert(i)
        assert sampler.items_seen == 10_000
        # in steady state only a tiny fraction is inserted
        assert sampler.insertions < 300

    def test_extend_ids(self):
        sampler = SequentialUniformReservoir(k=4, seed=4)
        sampler.extend_ids(range(20))
        assert sampler.items_seen == 20


class TestDenseReferenceSamplers:
    def test_dense_weighted_size(self, rng):
        ids = np.arange(100)
        sample = dense_weighted_sample(ids, np.ones(100), 10, rng)
        assert len(sample) == 10
        assert len(set(sample.tolist())) == 10

    def test_dense_weighted_k_larger_than_n(self, rng):
        sample = dense_weighted_sample(np.arange(5), np.ones(5), 10, rng)
        assert sorted(sample.tolist()) == [0, 1, 2, 3, 4]

    def test_dense_weighted_k_zero(self, rng):
        assert dense_weighted_sample(np.arange(5), np.ones(5), 0, rng).shape == (0,)

    def test_dense_uniform_size(self, rng):
        sample = dense_uniform_sample(np.arange(50), 7, rng)
        assert len(sample) == 7

    def test_dense_weighted_prefers_heavy_items(self, rng):
        # one item with overwhelming weight is almost always sampled
        weights = np.ones(100)
        weights[3] = 10_000.0
        hits = 0
        for seed in range(200):
            sample = dense_weighted_sample(np.arange(100), weights, 5, np.random.default_rng(seed))
            hits += 3 in sample
        assert hits > 190


class TestAgreementWithDenseSampler:
    def test_single_draw_probabilities_match_weights(self):
        # k=1: inclusion probability is exactly w_i / W for the reservoir
        # sampler as well; compare empirical frequencies
        weights = np.array([1.0, 2.0, 4.0, 8.0])
        counts = np.zeros(4)
        trials = 4000
        for seed in range(trials):
            sampler = SequentialWeightedReservoir(k=1, seed=seed)
            for i, w in enumerate(weights):
                sampler.insert(i, float(w))
            counts[sampler.sample_ids()[0]] += 1
        freq = counts / trials
        expected = weights / weights.sum()
        np.testing.assert_allclose(freq, expected, atol=0.03)

    def test_uniform_inclusion_probability_is_k_over_n(self):
        n, k, trials = 40, 8, 1500
        counts = np.zeros(n)
        for seed in range(trials):
            sampler = SequentialUniformReservoir(k=k, seed=seed)
            for i in range(n):
                sampler.insert(i)
            counts[sampler.sample_ids()] += 1
        freq = counts / trials
        np.testing.assert_allclose(freq, np.full(n, k / n), atol=0.05)


class TestStoreBackedSequentialSamplers:
    """The vectorized store-backed batch path must stay a correct sampler."""

    def test_weighted_store_single_draw_matches_weights(self):
        from repro.stream import ItemBatch

        weights = np.array([1.0, 2.0, 4.0, 8.0])
        counts = np.zeros(4)
        trials = 3000
        for seed in range(trials):
            sampler = SequentialWeightedReservoir(k=1, seed=seed, store="merge")
            sampler.process(ItemBatch(ids=np.arange(4), weights=weights))
            counts[sampler.sample_ids()[0]] += 1
        freq = counts / trials
        np.testing.assert_allclose(freq, weights / weights.sum(), atol=0.03)

    def test_weighted_store_invariants(self):
        from repro.stream import ItemBatch

        rng = np.random.default_rng(5)
        sampler = SequentialWeightedReservoir(k=20, seed=9, store="merge")
        for start in range(0, 300, 60):
            ids = np.arange(start, start + 60)
            sampler.process(ItemBatch(ids=ids, weights=rng.uniform(0.5, 3.0, 60)))
        assert sampler.size == 20
        assert sampler.items_seen == 300
        assert sampler.threshold is not None
        sample = sampler.sample()
        assert len(sample) == 20
        assert all(w > 0 for _, w in sample)
        triples = sampler.sample_with_keys()
        keys = [key for key, _, _ in triples]
        assert keys == sorted(keys)
        assert max(keys) == pytest.approx(sampler.threshold)

    def test_uniform_store_inclusion_probability(self):
        from repro.stream import ItemBatch

        n, k, trials = 30, 6, 1200
        counts = np.zeros(n)
        for seed in range(trials):
            sampler = SequentialUniformReservoir(k=k, seed=seed, store="merge")
            sampler.process(ItemBatch(ids=np.arange(n), weights=np.ones(n)))
            counts[sampler.sample_ids()] += 1
        np.testing.assert_allclose(counts / trials, np.full(n, k / n), atol=0.06)

    def test_store_backed_single_insert(self):
        sampler = SequentialUniformReservoir(k=3, seed=1, store="btree")
        for i in range(10):
            sampler.insert(i)
        assert sampler.size == 3
        assert sampler.items_seen == 10

    def test_items_one_at_a_time_equal_one_batch(self):
        """insert() is a batch of one on the same path: feeding item by item
        draws the same keys and keeps the same sample as one batch."""
        weights = np.random.default_rng(3).uniform(0.5, 4.0, 500)
        by_item = SequentialWeightedReservoir(k=10, seed=3)
        for item_id, weight in enumerate(weights.tolist()):
            by_item.insert(item_id, weight)
        by_batch = SequentialWeightedReservoir(k=10, seed=3)
        by_batch.process(ItemBatch(ids=np.arange(500), weights=weights))
        assert by_item.sample_with_keys() == by_batch.sample_with_keys()
        uniform_by_item = SequentialUniformReservoir(k=10, seed=3)
        for item_id in range(500):
            uniform_by_item.insert(item_id)
        uniform_by_batch = SequentialUniformReservoir(k=10, seed=3)
        uniform_by_batch.extend_ids(range(500))
        assert uniform_by_item.sample_with_keys() == uniform_by_batch.sample_with_keys()

    def test_unknown_store_rejected(self):
        with pytest.raises(ValueError):
            SequentialWeightedReservoir(k=5, store="skiplist")

    def test_insertion_count_matches_reservoir_entries(self):
        """Regression: the store path must count items that actually entered
        the reservoir, not every item that merely passed the prefilter."""
        from repro.stream import ItemBatch

        rng = np.random.default_rng(11)
        sampler = SequentialWeightedReservoir(k=20, seed=2, store="merge")
        first = sampler.process(
            ItemBatch(ids=np.arange(10_000), weights=rng.uniform(0.5, 2.0, 10_000))
        )
        assert first <= 20  # NOT 10_000: only k items can enter a k-reservoir
        assert sampler.insertions == first
        later = sampler.process(
            ItemBatch(ids=np.arange(10_000, 11_000), weights=rng.uniform(0.5, 2.0, 1_000))
        )
        assert 0 <= later <= 20
        assert sampler.insertions == first + later

    @pytest.mark.parametrize("make", [
        lambda: SequentialWeightedReservoir(k=20, seed=4),
        lambda: DecayedReservoir(20, 0.999, seed=4),
    ], ids=["sequential", "decayed"])
    def test_first_batch_records_only_the_sampled_weights(self, make):
        """Regression: the first batch has no threshold, so every item passes
        the prefilter; only the k items that survive the truncation may get a
        weight entry, or peak memory grows with the batch size."""
        rng = np.random.default_rng(8)
        weights = rng.uniform(0.5, 2.0, 10_000)
        sampler = make()
        sampler._weights_by_id = recorded = _PeakSizeDict()
        sampler.process(ItemBatch(ids=np.arange(10_000), weights=weights))
        assert recorded.peak <= 20
        sample = sampler.sample()
        assert len(sample) == 20
        for item_id, weight in sample:
            assert weight == weights[item_id]

    @pytest.mark.parametrize("make, insert", [
        (lambda: SequentialWeightedReservoir(k=3, seed=6),
         lambda sampler, item_id: sampler.insert(item_id, 1.0 + item_id % 5)),
        (lambda: SequentialUniformReservoir(k=3, seed=6),
         lambda sampler, item_id: sampler.insert(item_id)),
    ], ids=["weighted", "uniform"])
    def test_insert_reports_whether_the_item_was_kept(self, make, insert):
        sampler = make()
        kept = 0
        for item_id in range(300):
            entered = insert(sampler, item_id)
            assert entered == (item_id in sampler.sample_ids().tolist())
            kept += entered
        assert sampler.insertions == kept
        assert 3 < kept < 300


class TestIngestKeyedBatch:
    """The shared prefilter/merge/truncate step behind every sequential batch."""

    def test_prefilter_drops_keys_at_or_above_threshold(self):
        store = make_store("merge")
        keys = np.array([0.1, 0.5, 0.5, 0.9])
        inserted = ingest_keyed_batch(store, keys, np.arange(4), 3, threshold=0.5)
        assert inserted == 1
        assert store.ids_array().tolist() == [0]

    def test_counts_only_items_that_survive_truncation(self):
        store = make_store("merge")
        first = ingest_keyed_batch(store, np.array([0.4, 0.2, 0.6, 0.8]), np.arange(4), 3)
        assert first == 3
        assert store.ids_array().tolist() == [1, 0, 2]
        later = ingest_keyed_batch(
            store, np.array([0.1, 0.5, 0.7]), np.array([10, 11, 12]), 3,
            threshold=store.max_key(),
        )
        assert later == 1  # 0.7 is prefiltered, 0.5 is merged and then evicted
        assert store.ids_array().tolist() == [10, 1, 0]

    def test_weight_bookkeeping_requires_weights(self):
        with pytest.raises(ValueError):
            ingest_keyed_batch(
                make_store("merge"), np.array([0.3]), np.array([0]), 2, weights_by_id={}
            )

    def test_weight_map_is_pruned_to_the_stored_ids(self):
        k = 2
        store, weights_by_id = make_store("merge"), {}
        for i in range(100):
            ids = np.array([2 * i, 2 * i + 1])
            # every batch holds the two smallest keys so far, so both enter
            keys = 1.0 / (ids + 2.0)
            threshold = store.max_key() if len(store) >= k else None
            entered = ingest_keyed_batch(
                store, keys, ids, k, threshold=threshold,
                weights=ids + 1.0, weights_by_id=weights_by_id,
            )
            assert entered == 2
            assert len(weights_by_id) <= 4 * k + 64
        stored = store.ids_array().tolist()
        assert stored == [199, 198]
        for item_id in stored:
            assert weights_by_id[item_id] == item_id + 1.0
