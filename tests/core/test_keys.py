"""Tests for key generation and skip values (exponential/geometric jumps)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core import keys as keymod


class TestExponentialKeys:
    def test_shape_and_positivity(self, rng):
        keys = keymod.exponential_keys(np.full(1000, 2.0), rng)
        assert keys.shape == (1000,)
        assert np.all(keys > 0)

    def test_empty_input(self, rng):
        assert keymod.exponential_keys(np.array([]), rng).shape == (0,)

    def test_distribution_is_exponential_with_rate_w(self, rng):
        w = 3.0
        keys = keymod.exponential_keys(np.full(20_000, w), rng)
        # mean of Exp(rate w) is 1/w
        assert keys.mean() == pytest.approx(1.0 / w, rel=0.05)
        # Kolmogorov-Smirnov test against the exponential distribution
        _, p_value = stats.kstest(keys, "expon", args=(0, 1.0 / w))
        assert p_value > 1e-4

    def test_heavier_items_get_smaller_keys(self, rng):
        light = keymod.exponential_keys(np.full(20_000, 1.0), rng)
        heavy = keymod.exponential_keys(np.full(20_000, 10.0), rng)
        assert heavy.mean() < light.mean() / 5

    def test_rejects_invalid_weights(self, rng):
        with pytest.raises(ValueError):
            keymod.exponential_keys(np.array([1.0, -1.0]), rng)


class TestUniformKeys:
    def test_range(self, rng):
        keys = keymod.uniform_keys(10_000, rng)
        assert np.all(keys > 0) and np.all(keys <= 1.0)

    def test_uniformity(self, rng):
        keys = keymod.uniform_keys(20_000, rng)
        _, p_value = stats.kstest(keys, "uniform")
        assert p_value > 1e-4

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            keymod.uniform_keys(-1, rng)


class TestWeightedJumpKernel:
    def test_returned_keys_below_threshold(self, rng):
        weights = rng.uniform(0.1, 10.0, size=5000)
        idx, keys = keymod.weighted_jump_positions(weights, 0.05, rng)
        assert np.all(keys < 0.05)
        assert np.all(np.diff(idx) > 0)  # strictly increasing positions
        assert np.all((idx >= 0) & (idx < 5000))

    def test_empty_batch(self, rng):
        idx, keys = keymod.weighted_jump_positions(np.array([]), 0.5, rng)
        assert idx.shape == (0,) and keys.shape == (0,)

    def test_huge_threshold_accepts_everything(self, rng):
        weights = rng.uniform(0.5, 1.0, size=200)
        idx, keys = keymod.weighted_jump_positions(weights, 1e9, rng)
        assert len(idx) == 200

    def test_tiny_threshold_accepts_almost_nothing(self, rng):
        weights = rng.uniform(0.5, 1.0, size=10_000)
        idx, _ = keymod.weighted_jump_positions(weights, 1e-9, rng)
        assert len(idx) <= 2

    def test_acceptance_count_matches_dense_kernel(self):
        # The jump kernel and the dense kernel must accept the same expected
        # number of items: P(key < T) per item.
        weights = np.random.default_rng(1).uniform(0.1, 2.0, size=2000)
        threshold = 0.01
        jump_counts = []
        dense_counts = []
        for seed in range(200):
            rng_a = np.random.default_rng(1000 + seed)
            rng_b = np.random.default_rng(5000 + seed)
            jump_counts.append(len(keymod.weighted_jump_positions(weights, threshold, rng_a)[0]))
            dense_counts.append(len(keymod.dense_weighted_candidates(weights, threshold, rng_b)[0]))
        assert np.mean(jump_counts) == pytest.approx(np.mean(dense_counts), rel=0.15)

    def test_acceptance_probability_proportional_to_weight(self):
        # items with double weight are accepted roughly twice as often under
        # a small threshold
        weights = np.tile([1.0, 2.0], 1000)
        threshold = 0.02
        accepted = np.zeros(2)
        for seed in range(300):
            rng = np.random.default_rng(seed)
            idx, _ = keymod.weighted_jump_positions(weights, threshold, rng)
            accepted[0] += np.sum(idx % 2 == 0)
            accepted[1] += np.sum(idx % 2 == 1)
        assert accepted[1] / accepted[0] == pytest.approx(2.0, rel=0.15)

    def test_invalid_threshold(self, rng):
        with pytest.raises(ValueError):
            keymod.weighted_jump_positions(np.array([1.0]), 0.0, rng)


class TestUniformJumpKernel:
    def test_positions_and_keys_valid(self, rng):
        idx, keys = keymod.uniform_jump_positions(1000, 0.1, rng)
        assert np.all((idx >= 0) & (idx < 1000))
        assert np.all(np.diff(idx) > 0)
        assert np.all(keys <= 0.1)

    def test_acceptance_rate_is_threshold(self):
        counts = []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            idx, _ = keymod.uniform_jump_positions(2000, 0.05, rng)
            counts.append(len(idx))
        assert np.mean(counts) == pytest.approx(2000 * 0.05, rel=0.1)

    def test_zero_count(self, rng):
        idx, keys = keymod.uniform_jump_positions(0, 0.5, rng)
        assert len(idx) == 0

    def test_threshold_one_accepts_everything(self, rng):
        idx, _ = keymod.uniform_jump_positions(50, 1.0, rng)
        assert len(idx) == 50

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            keymod.uniform_jump_positions(-1, 0.5, rng)
        with pytest.raises(ValueError):
            keymod.uniform_jump_positions(10, 0.0, rng)


class TestDenseKernels:
    def test_dense_weighted_respects_threshold(self, rng):
        weights = rng.uniform(0.1, 5.0, size=1000)
        idx, keys = keymod.dense_weighted_candidates(weights, 0.1, rng)
        assert np.all(keys < 0.1)
        assert len(idx) == len(keys)

    def test_dense_weighted_infinite_threshold(self, rng):
        weights = rng.uniform(0.1, 5.0, size=100)
        idx, keys = keymod.dense_weighted_candidates(weights, math.inf, rng)
        assert len(idx) == 100

    def test_dense_uniform(self, rng):
        idx, keys = keymod.dense_uniform_candidates(1000, 0.2, rng)
        assert np.all(keys < 0.2)
        idx_all, _ = keymod.dense_uniform_candidates(10, math.inf, rng)
        assert len(idx_all) == 10

    def test_dense_uniform_negative_count(self, rng):
        with pytest.raises(ValueError):
            keymod.dense_uniform_candidates(-1, 0.5, rng)


@settings(max_examples=50, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=300),
    threshold=st.floats(min_value=1e-4, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_jump_positions_are_sorted_unique_and_keys_below_threshold(weights, threshold, seed):
    rng = np.random.default_rng(seed)
    idx, keys = keymod.weighted_jump_positions(np.array(weights), threshold, rng)
    assert len(idx) == len(keys)
    assert np.all(np.diff(idx) > 0)
    assert np.all(keys < threshold)
    assert np.all(idx < len(weights))
