"""Backend equivalence: SimComm and ProcessComm must produce byte-identical
samples for the same seed.

This is the acceptance gate of the real execution backend: the per-PE
kernels consume the same spawned random streams and the worker-side
collectives apply reductions in the same order as the simulated trees, so
every algorithm must yield exactly the same reservoir contents — ids *and*
keys — and the same threshold trajectory under both backends.
"""

import numpy as np
import pytest

from repro.core import DistributedSamplingRun, make_distributed_sampler, numba_available
from repro.network import ProcessComm, SimComm
from repro.stream import MiniBatchStream

ROUNDS = 5
BATCH = 300
SEED = 13

#: kernel-tier axis — the compiled leg self-skips without numba
TIERS = ["numpy", pytest.param("jit", marks=pytest.mark.skipif(
    not numba_available(), reason="numba not installed"))]


def _run_sampler(comm, algorithm, k, p, *, weighted=True, store="merge", kernel_tier="numpy"):
    sampler = make_distributed_sampler(
        algorithm, k, comm, seed=SEED, weighted=weighted, store=store, kernel_tier=kernel_tier
    )
    stream = MiniBatchStream(p, BATCH, seed=SEED + 1)
    thresholds = []
    for _ in range(ROUNDS):
        metrics = sampler.process_round(stream.next_round().batches)
        thresholds.append(metrics.threshold)
    items = sorted(sampler.sample_items())
    return np.sort(sampler.sample_ids()), thresholds, items


@pytest.mark.parametrize("kernel_tier", TIERS)
@pytest.mark.parametrize("payload_transport", ["pickle", "shm"])
@pytest.mark.parametrize(
    "algorithm,k",
    [("ours", 40), ("ours-8", 40), ("gather", 30), ("ours-variable", 25)],
)
def test_samples_byte_identical_across_backends(algorithm, k, payload_transport, kernel_tier):
    p = 2
    sim_ids, sim_thresholds, sim_items = _run_sampler(
        SimComm(p), algorithm, k, p, kernel_tier=kernel_tier
    )
    # shm_min_bytes low enough that the per-round candidate arrays of these
    # small test workloads genuinely take the shared-memory path
    with ProcessComm(p, payload_transport=payload_transport, shm_min_bytes=64) as proc:
        proc_ids, proc_thresholds, proc_items = _run_sampler(
            proc, algorithm, k, p, kernel_tier=kernel_tier
        )
    np.testing.assert_array_equal(sim_ids, proc_ids)
    assert sim_thresholds == proc_thresholds
    assert sim_items == proc_items  # keys too, not just ids


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_equivalence_at_higher_pe_counts(p):
    """Non-power-of-two counts exercise the worker allgather's
    gather-then-broadcast fallback, which reuses one ``seq`` for two
    sub-collectives — the mailbox stashing must keep them apart."""
    sim_ids, sim_thresholds, _ = _run_sampler(SimComm(p), "ours", 50, p)
    with ProcessComm(p) as proc:
        proc_ids, proc_thresholds, _ = _run_sampler(proc, "ours", 50, p)
    np.testing.assert_array_equal(sim_ids, proc_ids)
    assert sim_thresholds == proc_thresholds


@pytest.mark.parametrize("p", [3, 5, 6])
@pytest.mark.parametrize("algorithm,k", [("ours", 50), ("gather", 30)])
def test_equivalence_non_power_of_two_under_shm_transport(p, algorithm, k):
    """The shm transport must stay byte-identical on the non-power-of-two
    collective paths too (descriptors through gather+broadcast reuse)."""
    sim_ids, sim_thresholds, sim_items = _run_sampler(SimComm(p), algorithm, k, p)
    with ProcessComm(p, payload_transport="shm", shm_min_bytes=64) as proc:
        proc_ids, proc_thresholds, proc_items = _run_sampler(proc, algorithm, k, p)
    np.testing.assert_array_equal(sim_ids, proc_ids)
    assert sim_thresholds == proc_thresholds
    assert sim_items == proc_items


def test_equivalence_for_uniform_sampling():
    p = 2
    sim_ids, _, sim_items = _run_sampler(SimComm(p), "ours", 35, p, weighted=False)
    with ProcessComm(p) as proc:
        proc_ids, _, proc_items = _run_sampler(proc, "ours", 35, p, weighted=False)
    np.testing.assert_array_equal(sim_ids, proc_ids)
    assert sim_items == proc_items


def test_equivalence_with_btree_store():
    p = 2
    sim_ids, _, _ = _run_sampler(SimComm(p), "ours", 30, p, store="btree")
    with ProcessComm(p) as proc:
        proc_ids, _, _ = _run_sampler(proc, "ours", 30, p, store="btree")
    np.testing.assert_array_equal(sim_ids, proc_ids)


def test_worker_stream_runs_identical_across_backends():
    """The worker-shard path (no stream=, worker-generated batches) is also exact."""
    kwargs = dict(k=40, p=2, batch_size=250, warmup_rounds=1, seed=SEED)
    with DistributedSamplingRun("ours", comm="sim", **kwargs) as sim_run:
        sim_run.run(4)
        sim_ids = np.sort(sim_run.sample_ids())
    with DistributedSamplingRun("ours", comm="process", **kwargs) as proc_run:
        metrics = proc_run.run(4)
        proc_ids = np.sort(proc_run.sample_ids())
    np.testing.assert_array_equal(sim_ids, proc_ids)
    assert metrics.wall_time > 0.0
    assert metrics.comm_backend == "process"


def test_process_backend_via_api_string():
    """comm="process" threads through the factory with p=."""
    sampler = make_distributed_sampler("ours", 20, "process", p=2, seed=3)
    try:
        stream = MiniBatchStream(2, 100, seed=4)
        for _ in range(3):
            sampler.process_round(stream.next_round().batches)
        assert len(sampler.sample_ids()) == 20
    finally:
        sampler.comm.shutdown()


class TestRunOwnershipAndMetrics:
    def test_run_owns_comm_built_from_name(self):
        from repro.core import DistributedSamplingRun

        with DistributedSamplingRun("ours", k=10, p=2, batch_size=50, seed=1, comm="process") as run:
            metrics = run.run(2)
            assert metrics.comm_backend == "process"
        with pytest.raises(RuntimeError):  # run owned the comm and shut it down
            run.comm.barrier()

    def test_run_leaves_caller_provided_comm_running(self):
        from repro.core import DistributedSamplingRun
        from repro.network import Communicator

        with ProcessComm(2) as comm:
            with DistributedSamplingRun("ours", k=10, p=2, batch_size=50, seed=1, comm=comm) as run:
                run.run(2)
            # the caller's communicator must survive the run's close()
            assert comm.allreduce([1.0, 1.0], Communicator.SUM) == [2.0, 2.0]

    def test_sim_backend_from_name_uses_machine_cost_model(self):
        from repro.runtime.machine import MachineSpec

        machine = MachineSpec.latency_bound()
        sampler = make_distributed_sampler("ours", 10, "sim", p=2, machine=machine, seed=0)
        assert sampler.comm.cost is machine.comm

    def test_process_round_attributes_insert_phase_time(self):
        with ProcessComm(2) as comm:
            sampler = make_distributed_sampler("ours", 20, comm, seed=2)
            stream = MiniBatchStream(2, 200, seed=3)
            metrics = sampler.process_round(stream.next_round().batches)
            assert metrics.phase_times["insert"].comm > 0.0  # measured dispatch time
