#!/usr/bin/env python
"""Quickstart: weighted reservoir sampling, sequential and distributed.

This example shows the two entry points of the library in a couple of
minutes of reading:

1. :class:`repro.ReservoirSampler` — a sequential weighted reservoir sampler
   (paper Section 4.1) fed from a plain stream of (id, weight) items.
2. :class:`repro.DistributedSamplingRun` — the fully distributed mini-batch
   algorithm (paper Algorithm 1) executed on a simulated machine, including
   the communication-cost accounting that the paper's evaluation is about.
3. The same :class:`repro.DistributedSamplingRun` executed on *real* worker
   processes (one per PE, each generating its own stream shard), reporting
   measured wall-clock throughput.

A longer walk-through lives in ``docs/quickstart.md``.  Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import DistributedSamplingRun, ReservoirSampler


def sequential_quickstart() -> None:
    print("=" * 72)
    print("1. Sequential weighted reservoir sampling")
    print("=" * 72)

    n_items = 100_000
    # a stream where item i has weight proportional to (i % 100) + 1
    weights = (np.arange(n_items) % 100 + 1).astype(float)

    sampler = ReservoirSampler(k=500, weighted=True, seed=7)
    # feed the stream in chunks, as it would arrive in practice
    for start in range(0, n_items, 10_000):
        stop = start + 10_000
        sampler.feed(np.arange(start, stop), weights[start:stop])

    sample = sampler.sample_ids()
    print(f"items seen          : {sampler.items_seen:,}")
    print(f"sample size         : {len(sample)}")
    print(f"current threshold   : {sampler.threshold:.3e}")
    # heavier items (larger i % 100) should be over-represented
    mean_weight_sampled = weights[sample].mean()
    mean_weight_stream = weights.mean()
    print(f"mean weight (stream): {mean_weight_stream:6.2f}")
    print(f"mean weight (sample): {mean_weight_sampled:6.2f}  <- biased towards heavy items")
    print()


def distributed_quickstart() -> None:
    print("=" * 72)
    print("2. Distributed mini-batch reservoir sampling (simulated, p = 64 PEs)")
    print("=" * 72)

    run = DistributedSamplingRun(
        "ours-8",          # Algorithm 1 with 8-pivot selection
        k=1_000,           # sample size
        p=64,              # simulated processing elements
        batch_size=2_000,  # items per PE per mini-batch
        seed=3,
    )
    metrics = run.run(rounds=10)

    print(f"rounds processed    : {metrics.num_rounds}")
    print(f"items processed     : {metrics.total_items:,}")
    print(f"sample size         : {len(run.sample_ids()):,}")
    print(f"simulated time      : {metrics.simulated_time * 1e3:.3f} ms")
    print(f"throughput per PE   : {metrics.throughput_per_pe():,.0f} items/s")
    print(f"mean selection depth: {metrics.mean_selection_depth():.2f} pivot rounds")
    print("running-time composition (paper Figure 6 phases):")
    for phase, fraction in sorted(metrics.phase_fractions().items()):
        print(f"    {phase:<10s} {fraction * 100:5.1f} %")
    comm = run.communication_summary()
    print(f"communication       : {comm['messages']:,} messages, "
          f"{comm['words']:,.0f} machine words")
    print()


def parallel_quickstart() -> None:
    print("=" * 72)
    print("3. Real multiprocess execution (p = 2 worker processes)")
    print("=" * 72)

    with DistributedSamplingRun(
        "ours-8",           # same algorithm as above ...
        k=1_000,
        p=2,                # ... but on 2 real worker processes
        comm="process",
        batch_size=16_384,  # each worker generates + ingests its own shard
        warmup_rounds=2,
        seed=3,
    ) as run:
        metrics = run.run(5)
        sample_size = len(run.sample_ids())

    print(f"rounds processed    : {metrics.num_rounds}")
    print(f"items processed     : {metrics.total_items:,}")
    print(f"sample size         : {sample_size:,}")
    print(f"measured wall time  : {metrics.wall_time * 1e3:.1f} ms")
    print(f"measured throughput : {metrics.wall_throughput_total():,.0f} items/s")
    print("(same seed + comm='sim' would yield byte-identical samples)")
    print()


if __name__ == "__main__":
    sequential_quickstart()
    distributed_quickstart()
    parallel_quickstart()
