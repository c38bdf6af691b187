"""Strict pipeline mode must be byte-identical to the lock-step drivers.

The acceptance gate of the asynchronous ingestion pipeline: for the same
seed, ``pipeline="strict"`` produces exactly the sample the lock-step
worker-shard rounds (``pipeline="off"``) produce — ids *and* keys,
on the simulated and the real multiprocess backend.  Strict mode only
moves *when* the shard batches are materialised (into a worker background
thread, overlapping the selection); every RNG stream is consumed in the
lock-step order, so nothing about the sample may change.
"""

import numpy as np
import pytest

from repro.core import DistributedSamplingRun

ROUNDS = 5
SEED = 13


def _lockstep_run(algorithm, comm, **kwargs):
    with DistributedSamplingRun(algorithm, comm=comm, **kwargs) as run:
        run.run(ROUNDS)
        ids = np.sort(run.sample_ids())
        threshold = run.sampler.threshold
    return ids, threshold


def _pipelined_run(algorithm, comm, mode, **kwargs):
    with DistributedSamplingRun(algorithm, comm=comm, pipeline=mode, **kwargs) as run:
        metrics = run.run(ROUNDS)
        ids = np.sort(run.sample_ids())
        threshold = run.sampler.threshold
    return ids, threshold, metrics


@pytest.mark.parametrize("algorithm,k", [("ours", 40), ("ours-8", 40), ("ours-variable", 25)])
def test_strict_matches_lockstep_on_sim(algorithm, k):
    kwargs = dict(k=k, p=2, batch_size=250, warmup_rounds=1, seed=SEED)
    ref_ids, ref_threshold = _lockstep_run(algorithm, "sim", **kwargs)
    ids, threshold, metrics = _pipelined_run(algorithm, "sim", "strict", **kwargs)
    np.testing.assert_array_equal(ref_ids, ids)
    assert threshold == ref_threshold
    # the pipeline actually engaged: prepare time was recorded and (partly) hidden
    assert metrics.phase_times().get("prepare") is not None
    assert metrics.total_overlap_saved >= 0.0


def test_strict_matches_lockstep_on_process_backend():
    kwargs = dict(k=40, p=2, batch_size=250, warmup_rounds=1, seed=SEED)
    ref_ids, ref_threshold = _lockstep_run("ours", "sim", **kwargs)
    ids, threshold, metrics = _pipelined_run("ours", "process", "strict", **kwargs)
    np.testing.assert_array_equal(ref_ids, ids)
    assert threshold == ref_threshold
    assert metrics.comm_backend == "process"
    assert metrics.wall_time > 0.0


@pytest.mark.parametrize("p", [3, 4])
def test_strict_equivalence_at_higher_pe_counts(p):
    kwargs = dict(k=50, p=p, batch_size=200, warmup_rounds=1, seed=SEED + 1)
    ref_ids, _ = _lockstep_run("ours", "sim", **kwargs)
    ids, _, _ = _pipelined_run("ours", "sim", "strict", **kwargs)
    np.testing.assert_array_equal(ref_ids, ids)


def test_strict_equivalence_for_uniform_sampling():
    kwargs = dict(k=35, p=2, batch_size=250, warmup_rounds=1, seed=SEED, weighted=False)
    ref_ids, _ = _lockstep_run("ours", "sim", **kwargs)
    ids, _, _ = _pipelined_run("ours", "sim", "strict", **kwargs)
    np.testing.assert_array_equal(ref_ids, ids)


def test_strict_equivalence_without_warmup():
    """Pre-threshold rounds fall back to the lock-step path, so even a run
    whose first measured rounds have no threshold stays byte-identical."""
    kwargs = dict(k=30, p=2, batch_size=200, warmup_rounds=0, seed=SEED + 2)
    ref_ids, _ = _lockstep_run("ours", "sim", **kwargs)
    ids, _, _ = _pipelined_run("ours", "sim", "strict", **kwargs)
    np.testing.assert_array_equal(ref_ids, ids)


class TestRelaxedBackendEquivalence:
    """Relaxed mode is deterministic: sim and process agree byte-for-byte.

    (Relaxed is *not* byte-identical to lock-step — keys come from the
    dedicated generation RNG — but for a given seed its threshold
    trajectory and sample are fully determined on either backend.)
    """

    def test_relaxed_sim_equals_relaxed_process(self):
        kwargs = dict(k=40, p=2, batch_size=250, warmup_rounds=1, seed=SEED)
        sim_ids, sim_thr, _ = _pipelined_run("ours", "sim", "relaxed", **kwargs)
        proc_ids, proc_thr, _ = _pipelined_run("ours", "process", "relaxed", **kwargs)
        np.testing.assert_array_equal(sim_ids, proc_ids)
        assert sim_thr == proc_thr
        assert len(sim_ids) == 40

    def test_windowed_pipelined_sim_equals_process(self):
        kwargs = dict(k=30, p=2, batch_size=200, warmup_rounds=1, seed=9, window=1200)
        sim_ids, _, sim_metrics = _pipelined_run("ours", "sim", "relaxed", **kwargs)
        proc_ids, _, _ = _pipelined_run("ours", "process", "relaxed", **kwargs)
        np.testing.assert_array_equal(sim_ids, proc_ids)
        assert len(sim_ids) == 30
        assert sim_metrics.total_evicted > 0


class TestHighLevelApiWiring:
    def test_api_strict_equals_api_off_for_default_stream(self):
        """`DistributedSamplingRun(pipeline="strict")` reproduces the
        lock-step run over the default stream (the shards replicate it)."""
        kwargs = dict(k=30, p=2, batch_size=300, seed=5)
        with DistributedSamplingRun("ours", pipeline="off", **kwargs) as off:
            off.run(ROUNDS)
            off_ids = np.sort(off.sample_ids())
        with DistributedSamplingRun("ours", pipeline="strict", **kwargs) as strict:
            metrics = strict.run(ROUNDS)
            strict_ids = np.sort(strict.sample_ids())
        np.testing.assert_array_equal(off_ids, strict_ids)
        assert metrics.num_rounds == ROUNDS

    def test_api_rejects_custom_stream_with_pipeline(self):
        from repro.stream import MiniBatchStream

        with pytest.raises(ValueError, match="stream"):
            DistributedSamplingRun(
                "ours", k=10, p=2, stream=MiniBatchStream(2, 50), pipeline="relaxed"
            )

    def test_api_rejects_gather_with_pipeline(self):
        with pytest.raises(ValueError, match="gather"):
            DistributedSamplingRun("gather", k=10, p=2, batch_size=100, pipeline="relaxed")

    def test_api_rejects_unknown_pipeline_mode(self):
        with pytest.raises(ValueError, match="pipeline mode"):
            DistributedSamplingRun("ours", k=10, p=2, batch_size=100, pipeline="bogus")

    def test_windowed_api_pipeline_runs(self):
        with DistributedSamplingRun(
            "ours", k=20, p=2, batch_size=150, seed=4, window=900, pipeline="relaxed"
        ) as run:
            metrics = run.run(6)
            assert len(run.sample_ids()) == 20
            assert metrics.total_evicted > 0
