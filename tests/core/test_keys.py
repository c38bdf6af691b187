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


# ---------------------------------------------------------------------------
# prefix sum only when needed: differential test against the eager traversal
# ---------------------------------------------------------------------------
def _eager_cumsum_jump_positions(weights, threshold, rng):
    """Reference traversal that always builds the prefix sum first."""
    n = weights.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    cumulative = np.cumsum(weights)
    total = float(cumulative[-1])
    indices = []
    keys = []
    consumed = 0.0
    while True:
        skip = -math.log(1.0 - rng.random()) / threshold
        target = consumed + skip
        if target > total or not np.isfinite(target):
            break
        j = int(np.searchsorted(cumulative, target, side="left"))
        if j >= n:
            break
        w = float(weights[j])
        lower = math.exp(-threshold * w)
        u = lower + (1.0 - rng.random()) * (1.0 - lower)
        u = max(u, np.finfo(np.float64).tiny)
        keys.append(-math.log(u) / w)
        indices.append(j)
        consumed = float(cumulative[j])
        if j == n - 1:
            break
    return np.asarray(indices, dtype=np.int64), np.asarray(keys, dtype=np.float64)


def _log_uniform_weights(seed, n, low_exp, high_exp):
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(low_exp, high_exp, size=n)


class TestClearanceTraversal:
    """The clearance check changes no draw and no decision of the traversal."""

    @staticmethod
    def _assert_same_traversal(weights, threshold, seed):
        rng_new = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        idx, keys = keymod.weighted_jump_positions(weights, threshold, rng_new)
        idx_ref, keys_ref = _eager_cumsum_jump_positions(weights, threshold, rng_ref)
        assert idx.dtype == idx_ref.dtype and keys.dtype == keys_ref.dtype
        assert idx.tobytes() == idx_ref.tobytes()
        assert keys.tobytes() == keys_ref.tobytes()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        return idx

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000, 4096, 65_536])
    @pytest.mark.parametrize("spread", [(-12, 12), (-12, -6), (6, 12), (0, 2)])
    def test_matches_eager_prefix_sum_across_sizes_and_scales(self, n, spread):
        weights = _log_uniform_weights(n, n, *spread)
        total = float(np.cumsum(weights)[-1])
        accepted = 0
        # thresholds from "the first jump clears almost every batch" to
        # "many insertions per batch"
        for scale in (1e-3, 0.3, 1.0, 3.0, 30.0):
            threshold = scale / total
            for seed in range(6):
                accepted += len(self._assert_same_traversal(weights, threshold, seed))
        assert accepted > 0

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.floats(min_value=1e-12, max_value=1e12), min_size=1, max_size=200),
        log_scale=st.floats(min_value=-3.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_matches_eager_prefix_sum_property(self, weights, log_scale, seed):
        # threshold * total is the expected number of accepted items; far
        # above the batch size a skip can fall below one ulp of the
        # consumed weight, which neither traversal is meant for
        w = np.array(weights)
        self._assert_same_traversal(w, 10.0**log_scale / float(np.cumsum(w)[-1]), seed)

    def test_caller_supplied_weight_sum_gives_the_same_traversal(self):
        weights = _log_uniform_weights(3, 4096, 0, 2)
        threshold = 1.0 / float(weights.sum())
        for seed in range(20):
            a = keymod.weighted_jump_positions(weights, threshold, np.random.default_rng(seed))
            b = keymod.weighted_jump_positions(
                weights, threshold, np.random.default_rng(seed), weight_sum=float(weights.sum())
            )
            assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.floats(min_value=1e-12, max_value=1e12), min_size=1, max_size=500),
    )
    def test_clearance_bound_is_never_below_the_prefix_sum_total(self, weights):
        w = np.array(weights)
        bound = keymod.jump_clearance_bound(float(w.sum()), w.shape[0])
        assert bound >= float(np.cumsum(w)[-1])

    @pytest.mark.parametrize("n", [1, 1000, 65_536])
    @pytest.mark.parametrize("seed", range(5))
    def test_clearance_bound_on_adversarial_orders(self, n, seed):
        # ascending and descending orders maximise the gap between the
        # left-to-right and the pairwise rounding
        w = _log_uniform_weights(seed, n, -12, 12)
        for order in (w, np.sort(w), np.sort(w)[::-1].copy()):
            bound = keymod.jump_clearance_bound(float(order.sum()), n)
            assert bound >= float(np.cumsum(order)[-1])

    def test_clearance_bound_of_an_overflowing_sum_clears_nothing(self):
        assert keymod.jump_clearance_bound(float("inf"), 3) == float("inf")
