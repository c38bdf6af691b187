"""Weight generators for synthetic mini-batch streams.

The paper's experiments use *uniformly random floating point weights from
the range 0..100* as the main input and, in preliminary experiments,
*normally distributed weights with the mean increasing based on the
iteration and the PE's rank* (Section 6.1).  Both are provided here, plus a
few further distributions (Zipf/heavy-tailed, exponential, unit weights)
used by the examples and by the statistical tests.

Each generator is a small stateless object; the stream passes in the PE
index, the round index and the PE's random generator so that runs are fully
reproducible and independent across PEs.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "WeightGenerator",
    "UniformWeightGenerator",
    "UnitWeightGenerator",
    "NormalDriftWeightGenerator",
    "ExponentialWeightGenerator",
    "ZipfWeightGenerator",
    "BurstyWeightGenerator",
]

_MIN_WEIGHT = 1e-12


class WeightGenerator(abc.ABC):
    """Produces the weights of one local mini-batch."""

    @abc.abstractmethod
    def generate(
        self, size: int, rng: np.random.Generator, *, pe: int = 0, round_index: int = 0
    ) -> np.ndarray:
        """Return ``size`` strictly positive weights for PE ``pe`` in the given round.

        The result should be a new array: :meth:`__call__` clamps it in place.
        """

    def __call__(
        self, size: int, rng: np.random.Generator, *, pe: int = 0, round_index: int = 0
    ) -> np.ndarray:
        weights = np.asarray(self.generate(size, rng, pe=pe, round_index=round_index), dtype=np.float64)
        return np.maximum(weights, _MIN_WEIGHT, out=weights)


class UniformWeightGenerator(WeightGenerator):
    """Uniform weights from ``(low, high]`` — the paper's main input (0..100)."""

    def __init__(self, low: float = 0.0, high: float = 100.0) -> None:
        if high <= low:
            raise ValueError("high must exceed low")
        if low < 0:
            raise ValueError("low must be non-negative (weights are positive)")
        self.low = float(low)
        self.high = float(high)

    def generate(self, size, rng, *, pe=0, round_index=0):
        # Map the half-open [0, 1) deviate to (low, high] so a weight of
        # exactly ``low`` (possibly zero) never occurs.  In place, with the
        # same operations in the same order as ``low + (1 - u) * (high - low)``.
        u = rng.random(size)
        np.subtract(1.0, u, out=u)
        u *= self.high - self.low
        u += self.low
        return u

    def __repr__(self) -> str:
        return f"UniformWeightGenerator(low={self.low}, high={self.high})"


class UnitWeightGenerator(WeightGenerator):
    """All weights equal to one; used for uniform (unweighted) sampling."""

    def generate(self, size, rng, *, pe=0, round_index=0):
        return np.ones(size, dtype=np.float64)

    def __repr__(self) -> str:
        return "UnitWeightGenerator()"


class NormalDriftWeightGenerator(WeightGenerator):
    """Normally distributed weights whose mean drifts with round and PE rank.

    Mirrors the skewed input of the paper's preliminary experiments: the
    mean increases based on the iteration (round) and the PE's rank, so
    later rounds and higher-ranked PEs produce heavier items.
    """

    def __init__(
        self,
        base_mean: float = 50.0,
        std: float = 10.0,
        round_drift: float = 1.0,
        pe_drift: float = 0.5,
    ) -> None:
        self.base_mean = check_positive(base_mean, "base_mean")
        self.std = check_positive(std, "std")
        self.round_drift = float(round_drift)
        self.pe_drift = float(pe_drift)

    def generate(self, size, rng, *, pe=0, round_index=0):
        mean = self.base_mean + self.round_drift * round_index + self.pe_drift * pe
        return rng.normal(loc=mean, scale=self.std, size=size)

    def __repr__(self) -> str:
        return (
            f"NormalDriftWeightGenerator(base_mean={self.base_mean}, std={self.std}, "
            f"round_drift={self.round_drift}, pe_drift={self.pe_drift})"
        )


class ExponentialWeightGenerator(WeightGenerator):
    """Exponentially distributed weights (moderately heavy upper tail)."""

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = check_positive(scale, "scale")

    def generate(self, size, rng, *, pe=0, round_index=0):
        return rng.exponential(scale=self.scale, size=size)

    def __repr__(self) -> str:
        return f"ExponentialWeightGenerator(scale={self.scale})"


class ZipfWeightGenerator(WeightGenerator):
    """Heavy-tailed (Pareto/Zipf-like) weights.

    Useful for the heavy-hitter style example applications: a small number
    of items carry a large share of the total weight.
    """

    def __init__(self, exponent: float = 1.5, scale: float = 1.0) -> None:
        if exponent <= 1.0:
            raise ValueError("exponent must exceed 1 for a finite mean")
        self.exponent = float(exponent)
        self.scale = check_positive(scale, "scale")

    def generate(self, size, rng, *, pe=0, round_index=0):
        # Inverse-CDF sampling of a Pareto distribution with shape a-1.
        u = 1.0 - rng.random(size)
        return self.scale * u ** (-1.0 / (self.exponent - 1.0))

    def __repr__(self) -> str:
        return f"ZipfWeightGenerator(exponent={self.exponent}, scale={self.scale})"


class BurstyWeightGenerator(WeightGenerator):
    """Periodic bursts of heavy items — a recency-sensitive workload.

    Every ``period`` rounds, the first ``burst_rounds`` rounds draw
    weights uniformly from ``(0, burst_high]`` while the remaining rounds
    draw from ``(0, base_high]``.  Under unbounded sampling old bursts
    dominate the sample forever; a sliding window or decayed sampler
    tracks the current regime — which is what the windowed examples and
    benchmarks demonstrate.
    """

    def __init__(
        self,
        base_high: float = 1.0,
        burst_high: float = 100.0,
        period: int = 8,
        burst_rounds: int = 2,
    ) -> None:
        self.base_high = check_positive(base_high, "base_high")
        self.burst_high = check_positive(burst_high, "burst_high")
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0 < burst_rounds <= period:
            raise ValueError("burst_rounds must lie in 1..period")
        self.period = int(period)
        self.burst_rounds = int(burst_rounds)

    def generate(self, size, rng, *, pe=0, round_index=0):
        high = self.burst_high if (round_index % self.period) < self.burst_rounds else self.base_high
        u = 1.0 - rng.random(size)
        return u * high

    def __repr__(self) -> str:
        return (
            f"BurstyWeightGenerator(base_high={self.base_high}, burst_high={self.burst_high}, "
            f"period={self.period}, burst_rounds={self.burst_rounds})"
        )
