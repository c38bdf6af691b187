"""Statistical correctness of the relaxed pipeline mode.

Relaxed rounds filter arrivals against a threshold that is stale by one
round and reconcile at ingest time.  Keys conditioned below the stale
threshold and re-truncated to the fresh one follow exactly the
distribution of keys drawn below the fresh threshold, so the sampling
distribution must be unchanged — verified here with the chi-squared /
total-variation machinery of ``tests/core/test_statistical_correctness.py``
against the dense reference sampler and against the lock-step run.

The superset-then-prune invariant is verified at the kernel level with a
hypothesis property: candidates prepared under the stale threshold are a
superset of the fresh-threshold candidates, and the reconciliation prune
removes exactly the keys above the fresh threshold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.statistics import (
    chi_square_statistic,
    total_variation_distance,
    weighted_inclusion_reference,
)
from repro.core import DistributedSamplingRun, make_distributed_sampler, pe_kernels
from repro.core.local_reservoir import LocalReservoir
from repro.network import SimComm
from repro.stream import MiniBatchStream
from repro.stream.shard import StreamShardSpec, WorkerStreamShard

# small finite population + many trials, matching the noise floor the
# core statistical suite's tolerances are calibrated for
P = 2
BATCH = 3
ROUNDS = 4
N_ITEMS = P * BATCH * ROUNDS
K = 6
TRIALS = 400
#: every trial reads the same stream (one fixed finite weighted population)
#: and varies only the sampler's seed — which is what lets inclusion
#: frequencies be compared across trials and against the dense reference
STREAM_SEED = 0


def _population_weights() -> np.ndarray:
    """Item weights by id, replayed from the stream the workers generate."""
    stream = MiniBatchStream(P, BATCH, seed=STREAM_SEED)
    batches = [batch for _ in range(ROUNDS) for batch in stream.next_round().batches]
    weights = np.zeros(N_ITEMS)
    for batch in batches:
        weights[batch.ids] = batch.weights
    return weights


def _inclusion_counts(pipeline: str) -> np.ndarray:
    counts = np.zeros(N_ITEMS)
    for seed in range(TRIALS):
        sampler = make_distributed_sampler("ours", K, SimComm(P), seed=seed)
        with DistributedSamplingRun(
            sampler, pipeline=pipeline, batch_size=BATCH, seed=STREAM_SEED
        ) as run:
            run.run(ROUNDS)
            sample = run.sample_ids()
        counts[sample] += 1
    return counts


@pytest.fixture(scope="module")
def relaxed_counts() -> np.ndarray:
    return _inclusion_counts("relaxed")


class TestRelaxedInclusionProbabilities:
    def test_relaxed_matches_dense_reference(self, relaxed_counts):
        weights = _population_weights()
        reference = weighted_inclusion_reference(
            weights, K, trials=4000, rng=np.random.default_rng(3)
        )
        observed = relaxed_counts / TRIALS
        assert total_variation_distance(observed, reference) < 0.06
        statistic, dof = chi_square_statistic(relaxed_counts, reference, TRIALS)
        assert statistic < stats.chi2.ppf(0.9999, dof), (statistic, dof)

    def test_relaxed_matches_lockstep_frequencies(self, relaxed_counts):
        lockstep_counts = _inclusion_counts("off")
        # both estimates carry Monte-Carlo noise, hence the wider tolerance
        assert total_variation_distance(relaxed_counts, lockstep_counts) < 0.09

    def test_heavier_items_included_more_often(self, relaxed_counts):
        weights = _population_weights()
        observed = relaxed_counts / TRIALS
        heavy = observed[weights == weights.max()].mean()
        light = observed[weights == weights.min()].mean()
        assert heavy > light


class TestSupersetThenPruneInvariant:
    """Kernel-level property: stale candidates ⊇ fresh candidates, and the
    reconciliation prune removes exactly the keys above the fresh threshold."""

    @staticmethod
    def _state_with_prepared(n, stale_threshold, seed):
        state = pe_kernels.make_pe_state(0, np.random.SeedSequence(seed), k=8)
        spec = StreamShardSpec(p=1, pe=0, batch_size=n, seed=seed)
        state["stream"] = WorkerStreamShard(spec)
        candidates, batch_items, _, _ = pe_kernels.prepare_batch_kernel(
            state, stale_threshold, True
        )
        assert batch_items == n
        return state, candidates

    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(1, 200),
        stale=st.floats(0.05, 4.0),
        tighten=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_reconciliation_prunes_exactly_the_stale_extra(self, seed, n, stale, tighten):
        fresh = stale * tighten  # fresh <= stale: the threshold only tightens
        state, candidates = self._state_with_prepared(n, stale, seed)
        prepared_keys = np.array(state["prepared"]["keys"], copy=True)
        prepared_ids = np.array(state["prepared"]["ids"], copy=True)
        assert np.all(prepared_keys <= stale)
        survivor_ids = set(prepared_ids[prepared_keys <= fresh].tolist())

        inserted, stale_extra, size = pe_kernels.ingest_prepared_kernel(state, fresh)
        # the prune removed exactly the candidates above the fresh threshold
        assert stale_extra == candidates - len(survivor_ids)
        assert inserted == len(survivor_ids)
        assert size == len(survivor_ids)
        reservoir: LocalReservoir = state["reservoir"]
        if size:
            assert reservoir.max_key() <= fresh
        # superset-then-prune: what remains is exactly the fresh subset of
        # the stale candidate set
        assert set(reservoir.item_ids().tolist()) == survivor_ids

    def test_stale_threshold_equal_means_no_prune(self):
        state, candidates = self._state_with_prepared(64, 1.5, seed=3)
        inserted, stale_extra, size = pe_kernels.ingest_prepared_kernel(state, 1.5)
        assert stale_extra == 0
        assert inserted == candidates == size

    def test_end_to_end_stale_extra_bookkeeping(self):
        """Per-round stale_extra is non-negative and only counts relaxed
        rounds; the total surfaces in the run metrics."""
        with DistributedSamplingRun(
            "ours", k=40, p=2, comm="sim", pipeline="relaxed",
            batch_size=300, warmup_rounds=1, seed=11,
        ) as run:
            metrics = run.run(6)
        per_round = [r.stale_extra_candidates for r in metrics.rounds]
        assert all(extra >= 0 for extra in per_round)
        assert metrics.total_stale_extra_candidates == sum(per_round)
        # thresholds tighten over a growing stream, so staleness must
        # actually have pruned something across six rounds
        assert metrics.total_stale_extra_candidates > 0

    def test_strict_mode_never_has_stale_extra(self):
        with DistributedSamplingRun(
            "ours", k=40, p=2, comm="sim", pipeline="strict",
            batch_size=300, warmup_rounds=1, seed=11,
        ) as run:
            metrics = run.run(6)
        assert metrics.total_stale_extra_candidates == 0
