"""Amortised window selection: skip re-selection when the boundary is intact.

A windowed round whose eviction and insertion did not touch the sample
(the old boundary still separates exactly ``k`` live keys, proven by one
counting all-reduction) can skip the full threshold re-selection.  These
tests verify that skips actually happen under a skip-friendly workload,
that every round's extracted sample — skipped or not — equals the
brute-force ``k`` smallest live keys, and that the counter plumbing works.
"""

import numpy as np
import pytest

from repro.core import make_distributed_sampler
from repro.network import ProcessComm, SimComm
from repro.stream import TimestampedMiniBatchStream

P = 2
K = 16
BATCH = 32
#: many rounds per window -> few sample-touching arrivals/evictions per
#: round -> plenty of skip opportunities
WINDOW = 64 * P * BATCH
ROUNDS = 30


def _brute_force_sample(sampler) -> np.ndarray:
    """The k smallest-key live candidates, read straight out of the buffers."""
    pairs = []
    for pe in range(sampler.p):
        buffer = sampler.comm.local_pe_state(sampler._handle, pe)["reservoir"]
        pairs.extend(buffer.items())
    pairs.sort()
    return np.sort(np.array([item_id for _key, item_id in pairs[: sampler.k]], dtype=np.int64))


def test_skips_happen_and_samples_stay_exact():
    sampler = make_distributed_sampler("ours", K, SimComm(P), seed=7, window=WINDOW)
    stream = TimestampedMiniBatchStream(P, BATCH, seed=8)
    skipped_rounds = 0
    checked_after_skip = 0
    for _ in range(ROUNDS):
        metrics = sampler.process_round(stream.next_round().batches)
        if metrics.selection_skipped:
            skipped_rounds += 1
            assert not metrics.selection_ran  # skip replaces the selection
        # skipped or not, the extracted sample must be the brute-force one
        expected = _brute_force_sample(sampler)
        np.testing.assert_array_equal(np.sort(sampler.sample_ids()), expected)
        if metrics.selection_skipped:
            checked_after_skip += 1
    assert skipped_rounds > 0, "workload was chosen to produce skips"
    assert sampler.selection_skips == skipped_rounds
    assert checked_after_skip > 0


def test_amortisation_can_be_disabled():
    sampler = make_distributed_sampler("ours", K, SimComm(P), seed=7, window=WINDOW)
    sampler.amortise_selection = False
    stream = TimestampedMiniBatchStream(P, BATCH, seed=8)
    for _ in range(ROUNDS):
        metrics = sampler.process_round(stream.next_round().batches)
        assert not metrics.selection_skipped
    assert sampler.selection_skips == 0


def test_disabled_and_enabled_agree_while_no_skip_occurred():
    """Until the first skip, both variants consume identical randomness and
    must produce identical samples."""
    on = make_distributed_sampler("ours", K, SimComm(P), seed=3, window=WINDOW)
    off = make_distributed_sampler("ours", K, SimComm(P), seed=3, window=WINDOW)
    off.amortise_selection = False
    stream_on = TimestampedMiniBatchStream(P, BATCH, seed=4)
    stream_off = TimestampedMiniBatchStream(P, BATCH, seed=4)
    for _ in range(ROUNDS):
        m_on = on.process_round(stream_on.next_round().batches)
        off.process_round(stream_off.next_round().batches)
        if m_on.selection_skipped:
            break
        np.testing.assert_array_equal(np.sort(on.sample_ids()), np.sort(off.sample_ids()))


def test_skip_counter_in_run_metrics():
    from repro.core import DistributedSamplingRun

    with DistributedSamplingRun(
        "ours", k=K, p=P, batch_size=BATCH, seed=7, window=WINDOW
    ) as run:
        metrics = run.run(ROUNDS)
    assert metrics.total_selection_skips == run.sampler.selection_skips
    assert metrics.total_selection_skips > 0


def test_sim_and_process_backends_agree_with_amortisation():
    def run_backend(comm):
        sampler = make_distributed_sampler("ours", K, comm, seed=11, window=WINDOW)
        stream = TimestampedMiniBatchStream(P, BATCH, seed=12)
        skips = []
        for _ in range(12):
            metrics = sampler.process_round(stream.next_round().batches)
            skips.append(metrics.selection_skipped)
        return np.sort(sampler.sample_ids()), skips

    sim_ids, sim_skips = run_backend(SimComm(P))
    with ProcessComm(P) as proc:
        proc_ids, proc_skips = run_backend(proc)
    np.testing.assert_array_equal(sim_ids, proc_ids)
    assert sim_skips == proc_skips


@pytest.mark.parametrize("weighted", [True, False])
def test_pipelined_windowed_run_records_skips(weighted):
    """The amortised check also fires inside the pipelined windowed engine."""
    from repro.core import DistributedSamplingRun

    with DistributedSamplingRun(
        "ours", k=K, p=P, comm="sim", pipeline="relaxed", batch_size=BATCH,
        warmup_rounds=0, seed=5, window=WINDOW, weighted=weighted,
    ) as run:
        metrics = run.run(ROUNDS)
    assert metrics.total_selection_skips == run.sampler.selection_skips
    assert metrics.total_selection_skips > 0
