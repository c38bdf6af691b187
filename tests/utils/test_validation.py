"""Tests for the argument-validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import check_positive, check_positive_int, check_probability, check_weights


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_numpy_integer(self):
        assert check_positive_int(np.int64(5), "x") == 5

    def test_rejects_zero_by_default(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_allows_zero_when_requested(self):
        assert check_positive_int(0, "x", allow_zero=True) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(-1, "x", allow_zero=True)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(1.5, "x")

    def test_error_message_contains_name(self):
        with pytest.raises(ValueError, match="widgets"):
            check_positive_int(-2, "widgets", allow_zero=True)


class TestCheckPositive:
    def test_accepts_positive_float(self):
        assert check_positive(0.25, "x") == 0.25

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_allows_zero_when_requested(self):
        assert check_positive(0.0, "x", allow_zero=True) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_positive(float("inf"), "x")


class TestCheckProbability:
    def test_accepts_half(self):
        assert check_probability(0.5, "p") == 0.5

    def test_accepts_one_by_default(self):
        assert check_probability(1.0, "p") == 1.0

    def test_rejects_zero_by_default(self):
        with pytest.raises(ValueError):
            check_probability(0.0, "p")

    def test_allow_zero(self):
        assert check_probability(0.0, "p", allow_zero=True) == 0.0

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_probability(1.5, "p")

    def test_disallow_one(self):
        with pytest.raises(ValueError):
            check_probability(1.0, "p", allow_one=False)


class TestCheckWeights:
    def test_accepts_positive_weights(self):
        out = check_weights([1.0, 2.0, 3.0])
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            check_weights([1.0, 0.0])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            check_weights([1.0, -2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_weights([1.0, float("nan")])

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError):
            check_weights(np.ones((2, 2)))

    def test_empty_is_allowed(self):
        assert check_weights([]).shape == (0,)


class TestCheckWeightsMessages:
    """The one-pass check raises exactly what the two-pass check raised."""

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1.0, float("nan")], "weights must be finite"),
            ([float("inf"), 1.0], "weights must be finite"),
            ([1.0, float("-inf")], "weights must be finite"),
            ([float("nan"), -1.0], "weights must be finite"),
            ([-1.0, float("nan")], "weights must be finite"),
            ([0.0, float("inf")], "weights must be finite"),
            ([1.0, 0.0], "weights must be strictly positive"),
            ([0.0], "weights must be strictly positive"),
            ([2.0, -3.0, 1.0], "weights must be strictly positive"),
            ([-0.0, 1.0], "weights must be strictly positive"),
        ],
    )
    def test_invalid_weights_keep_their_message(self, weights, message):
        with pytest.raises(ValueError) as info:
            check_weights(np.array(weights))
        assert str(info.value) == message

    def test_custom_name_is_used(self):
        with pytest.raises(ValueError, match=r"^w must be finite$"):
            check_weights([float("nan")], name="w")
        with pytest.raises(ValueError, match=r"^w must be strictly positive$"):
            check_weights([-1.0], name="w")

    def test_two_dimensional_keeps_its_message(self):
        with pytest.raises(ValueError) as info:
            check_weights(np.ones((2, 2)))
        assert str(info.value) == "weights must be one-dimensional, got shape (2, 2)"
        assert type(info.value) is ValueError

    def test_two_dimensional_is_reported_before_bad_values(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            check_weights(np.array([[float("nan"), -1.0]]))

    def test_empty_input_passes_unchanged(self):
        out = check_weights(np.empty(0))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_tiny_and_huge_finite_weights_pass(self):
        weights = np.array([5e-324, 1e-300, 1.0, 1.7e308])
        assert check_weights(weights) is weights

    def test_non_numeric_input_raises_like_before(self):
        with pytest.raises(ValueError):
            check_weights(["a", "b"])
