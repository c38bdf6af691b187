"""Statistical correctness of the samplers.

These tests provide the scientific evidence that the distributed mini-batch
algorithm produces genuine weighted/uniform samples without replacement:

* exact single-draw probabilities (``k = 1``),
* empirical inclusion frequencies compared against the dense reference
  sampler (chi-square and total-variation checks),
* uniform samplers: inclusion probability ``k / n`` for every item,
* the sequential sampler fed in several batches, against the same bounds,
* agreement between the jump kernels and the dense kernels.

All tests use fixed seeds and generous tolerances so they are deterministic,
and every distributed and sequential trial is exercised under both
reservoir store backends ("btree" and "merge") via the module-level
``store`` fixture — the sampling distribution must not depend on the
storage data structure.
"""

import numpy as np
import pytest
from scipy import stats

from repro.analysis.statistics import (
    chi_square_statistic,
    total_variation_distance,
    weighted_inclusion_reference,
)
from repro.core import (
    CentralizedGatherSampler,
    DistributedReservoirSampler,
    DistributedUniformReservoirSampler,
    ReservoirSampler,
)
from repro.network import SimComm
from repro.stream import ItemBatch, partition_random


def run_distributed_trial(sampler_factory, ids, weights, p, rounds, seed):
    """Stream the (ids, weights) items through a distributed sampler."""
    rng = np.random.default_rng(seed)
    sampler = sampler_factory(seed)
    batch = ItemBatch(ids=ids, weights=weights)
    # split the items into `rounds` global mini-batches, each scattered
    # randomly over the PEs
    order = rng.permutation(len(ids))
    chunks = np.array_split(order, rounds)
    for chunk in chunks:
        parts = partition_random(batch.take(chunk), p, rng)
        sampler.process_round(parts)
    return sampler.sample_ids()


def run_sequential_trial(sampler_factory, ids, weights, rounds, seed):
    """Stream the (ids, weights) items through a sequential sampler in
    ``rounds`` batches, so every batch after the first is prefiltered
    against the threshold the earlier ones set."""
    rng = np.random.default_rng(seed)
    sampler = sampler_factory(seed)
    batch = ItemBatch(ids=ids, weights=weights)
    for chunk in np.array_split(rng.permutation(len(ids)), rounds):
        sampler.feed_batch(batch.take(chunk))
    return sampler.sample_ids()


N_ITEMS = 24
P = 4
ROUNDS = 3
TRIALS = 400


@pytest.fixture(params=["btree", "merge"], ids=["store-btree", "store-merge"])
def store(request):
    """Reservoir store backend each distributed trial runs under."""
    return request.param


@pytest.fixture(scope="module")
def weighted_setup():
    rng = np.random.default_rng(7)
    ids = np.arange(N_ITEMS)
    weights = rng.uniform(0.5, 8.0, size=N_ITEMS)
    return ids, weights


class TestSingleDrawExactness:
    """k = 1: the inclusion probability of item i is exactly w_i / W."""

    def test_distributed_weighted_single_draw(self, weighted_setup, store):
        ids, weights = weighted_setup
        counts = np.zeros(N_ITEMS)
        for seed in range(TRIALS):
            sample = run_distributed_trial(
                lambda s: DistributedReservoirSampler(1, SimComm(P), seed=s, store=store),
                ids, weights, P, ROUNDS, seed,
            )
            counts[sample] += 1
        expected = weights / weights.sum()
        statistic, dof = chi_square_statistic(counts, expected, TRIALS)
        # generous: reject only if the fit is catastrophically bad
        assert statistic < stats.chi2.ppf(0.9999, dof), (statistic, dof)
        assert total_variation_distance(counts, expected) < 0.12

    def test_centralized_weighted_single_draw(self, weighted_setup, store):
        ids, weights = weighted_setup
        counts = np.zeros(N_ITEMS)
        for seed in range(TRIALS):
            sample = run_distributed_trial(
                lambda s: CentralizedGatherSampler(1, SimComm(P), seed=s, store=store),
                ids, weights, P, ROUNDS, seed,
            )
            counts[sample] += 1
        expected = weights / weights.sum()
        statistic, dof = chi_square_statistic(counts, expected, TRIALS)
        assert statistic < stats.chi2.ppf(0.9999, dof)


class TestInclusionFrequenciesAgainstReference:
    """k > 1: compare against the dense reference sampler's frequencies."""

    def test_distributed_matches_dense_reference(self, weighted_setup, store):
        ids, weights = weighted_setup
        k = 6
        counts = np.zeros(N_ITEMS)
        for seed in range(TRIALS):
            sample = run_distributed_trial(
                lambda s: DistributedReservoirSampler(k, SimComm(P), seed=s, store=store),
                ids, weights, P, ROUNDS, seed,
            )
            counts[sample] += 1
        observed = counts / TRIALS
        reference = weighted_inclusion_reference(weights, k, trials=4000, rng=np.random.default_rng(3))
        # total variation between the two inclusion-frequency vectors
        assert total_variation_distance(observed, reference) < 0.06
        # heavier items must be included more often
        heavy, light = np.argmax(weights), np.argmin(weights)
        assert observed[heavy] > observed[light]

    def test_sequential_matches_dense_reference(self, weighted_setup, store):
        ids, weights = weighted_setup
        k = 6
        counts = np.zeros(N_ITEMS)
        for seed in range(TRIALS):
            sample = run_sequential_trial(
                lambda s: ReservoirSampler(k, seed=s, store=store),
                ids, weights, ROUNDS, seed,
            )
            counts[sample] += 1
        observed = counts / TRIALS
        reference = weighted_inclusion_reference(weights, k, trials=4000, rng=np.random.default_rng(6))
        assert total_variation_distance(observed, reference) < 0.06
        heavy, light = np.argmax(weights), np.argmin(weights)
        assert observed[heavy] > observed[light]

    def test_gather_matches_dense_reference(self, weighted_setup, store):
        ids, weights = weighted_setup
        k = 6
        counts = np.zeros(N_ITEMS)
        for seed in range(TRIALS):
            sample = run_distributed_trial(
                lambda s: CentralizedGatherSampler(k, SimComm(P), seed=s, store=store),
                ids, weights, P, ROUNDS, seed,
            )
            counts[sample] += 1
        observed = counts / TRIALS
        reference = weighted_inclusion_reference(weights, k, trials=4000, rng=np.random.default_rng(4))
        assert total_variation_distance(observed, reference) < 0.06

    def test_distributed_and_gather_agree_with_each_other(self, weighted_setup):
        ids, weights = weighted_setup
        k = 5
        counts = {"ours": np.zeros(N_ITEMS), "gather": np.zeros(N_ITEMS)}
        for seed in range(TRIALS):
            ours = run_distributed_trial(
                lambda s: DistributedReservoirSampler(k, SimComm(P), seed=s),
                ids, weights, P, ROUNDS, seed,
            )
            gather = run_distributed_trial(
                lambda s: CentralizedGatherSampler(k, SimComm(P), seed=s),
                ids, weights, P, ROUNDS, seed + 10_000,
            )
            counts["ours"][ours] += 1
            counts["gather"][gather] += 1
        # both estimates carry Monte-Carlo noise, hence the wider tolerance
        assert total_variation_distance(counts["ours"], counts["gather"]) < 0.09


class TestUniformSampling:
    def test_uniform_inclusion_probability_is_k_over_n(self, store):
        ids = np.arange(N_ITEMS)
        weights = np.ones(N_ITEMS)
        k = 6
        counts = np.zeros(N_ITEMS)
        for seed in range(TRIALS):
            sample = run_distributed_trial(
                lambda s: DistributedUniformReservoirSampler(k, SimComm(P), seed=s, store=store),
                ids, weights, P, ROUNDS, seed,
            )
            counts[sample] += 1
        freq = counts / TRIALS
        expected = np.full(N_ITEMS, k / N_ITEMS)
        np.testing.assert_allclose(freq, expected, atol=0.08)
        statistic, dof = chi_square_statistic(counts, expected, TRIALS)
        assert statistic < stats.chi2.ppf(0.9999, dof)

    def test_sequential_uniform_inclusion_probability_is_k_over_n(self, store):
        ids = np.arange(N_ITEMS)
        weights = np.ones(N_ITEMS)
        k = 6
        counts = np.zeros(N_ITEMS)
        for seed in range(TRIALS):
            sample = run_sequential_trial(
                lambda s: ReservoirSampler(k, weighted=False, seed=s, store=store),
                ids, weights, ROUNDS, seed,
            )
            counts[sample] += 1
        freq = counts / TRIALS
        expected = np.full(N_ITEMS, k / N_ITEMS)
        np.testing.assert_allclose(freq, expected, atol=0.08)
        statistic, dof = chi_square_statistic(counts, expected, TRIALS)
        assert statistic < stats.chi2.ppf(0.9999, dof)

    def test_weighted_sampler_with_equal_weights_is_uniform(self):
        ids = np.arange(N_ITEMS)
        weights = np.full(N_ITEMS, 3.0)
        k = 4
        counts = np.zeros(N_ITEMS)
        for seed in range(TRIALS):
            sample = run_distributed_trial(
                lambda s: DistributedReservoirSampler(k, SimComm(P), seed=s),
                ids, weights, P, ROUNDS, seed,
            )
            counts[sample] += 1
        freq = counts / TRIALS
        np.testing.assert_allclose(freq, np.full(N_ITEMS, k / N_ITEMS), atol=0.08)


class TestOrderInsensitivity:
    def test_partitioning_does_not_bias_the_sample(self, weighted_setup):
        """Whether an item arrives early/late or on PE 0/3 must not matter."""
        ids, weights = weighted_setup
        k = 5
        # always deliver item 0 in the first round on PE 0, item 1 in the
        # last round on the last PE; their inclusion frequencies must still
        # follow their weights
        counts = np.zeros(N_ITEMS)
        for seed in range(TRIALS):
            sampler = DistributedReservoirSampler(k, SimComm(P), seed=seed)
            batch = ItemBatch(ids=ids, weights=weights)
            first = batch.take(np.arange(0, N_ITEMS // 2))
            second = batch.take(np.arange(N_ITEMS // 2, N_ITEMS))
            sampler.process_round(first.split(P))
            sampler.process_round(second.split(P))
            counts[sampler.sample_ids()] += 1
        observed = counts / TRIALS
        reference = weighted_inclusion_reference(weights, k, trials=4000, rng=np.random.default_rng(5))
        assert total_variation_distance(observed, reference) < 0.06
