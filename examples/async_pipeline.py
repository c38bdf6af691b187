#!/usr/bin/env python
"""Asynchronous double-buffered ingestion (the ``repro.pipeline`` subsystem).

Lock-step rounds serialise every round's insert phase with its selection
collectives; ``DistributedSamplingRun(pipeline=...)`` overlaps them — while
the coordinator finishes round *t*'s selection, the workers already
prepare round *t+1*'s mini-batch.  This example demonstrates:

1. **Strict mode is free correctness-wise** — byte-identical samples to
   lock-step rounds for the same seed, with the next batch materialised
   in the background.
2. **Relaxed mode** — key generation overlapped under a one-round-stale
   threshold, a bounded number of extra candidates reconciled at ingest
   (``stale_extra_candidates``), overlap efficiency reported per run.
3. **Adaptive batch sizing** — ``batch_size="auto"`` steers the round
   latency toward a target instead of relying on a hand-picked size.

A longer walk-through lives in ``docs/async-pipeline.md``.  Run with::

    python examples/async_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro import DistributedSamplingRun

K = 1_000
P = 4
BATCH = 32_768
ROUNDS = 8
SEED = 42
#: rounds before measurement starts (the first threshold is set there)
WARMUP = 1


def strict_mode_is_byte_identical() -> None:
    print("=" * 72)
    print("1. Strict pipeline: overlap without changing a single sample byte")
    print("=" * 72)

    with DistributedSamplingRun(
        "ours-8", k=K, p=P, comm="process", batch_size=BATCH, warmup_rounds=WARMUP, seed=SEED
    ) as lockstep:
        lockstep.run(ROUNDS)
        lockstep_ids = np.sort(lockstep.sample_ids())
        lockstep_throughput = lockstep.metrics.wall_throughput_total()

    with DistributedSamplingRun(
        "ours-8", k=K, p=P, comm="process", pipeline="strict", batch_size=BATCH,
        warmup_rounds=WARMUP, seed=SEED,
    ) as strict:
        metrics = strict.run(ROUNDS)
        strict_ids = np.sort(strict.sample_ids())

    assert np.array_equal(lockstep_ids, strict_ids)
    print(f"lock-step throughput: {lockstep_throughput:>12,.0f} items/s")
    print(f"strict    throughput: {metrics.wall_throughput_total():>12,.0f} items/s")
    print(f"samples byte-identical: True ({len(strict_ids)} ids)")
    print(f"prepare time hidden behind selection: {metrics.total_overlap_saved * 1e3:.1f} ms\n")


def relaxed_mode_trades_staleness_for_overlap() -> None:
    print("=" * 72)
    print("2. Relaxed pipeline: stale-threshold filtering, reconciled at ingest")
    print("=" * 72)

    with DistributedSamplingRun(
        "ours-8", k=K, p=P, comm="process", pipeline="relaxed", batch_size=BATCH,
        warmup_rounds=WARMUP, seed=SEED,
    ) as relaxed:
        metrics = relaxed.run(ROUNDS)
        sample = relaxed.sample_ids()

    print(f"relaxed throughput:  {metrics.wall_throughput_total():>12,.0f} items/s")
    print(f"sample size:         {len(sample)} (still exactly k)")
    print(f"overlap efficiency:  {metrics.overlap_efficiency():.2f} "
          "(fraction of prepare time hidden)")
    print(f"stale extra candidates reconciled: {metrics.total_stale_extra_candidates} "
          f"over {metrics.num_rounds} rounds")
    per_round = [r.stale_extra_candidates for r in metrics.rounds]
    print(f"per round: {per_round}\n")


def auto_batch_sizing() -> None:
    print("=" * 72)
    print("3. batch_size='auto': steer the round latency to a target")
    print("=" * 72)

    with DistributedSamplingRun(
        "ours-8", k=K, p=P, comm="process", pipeline="relaxed",
        batch_size="auto", target_round_time=0.01, warmup_rounds=WARMUP, seed=SEED,
    ) as run:
        for _ in range(10):
            run.run(1)
        print(f"final batch size:    {run.batch_size} (started at 4096)")
        print(f"size adjustments:    {run.autotuner.adjustments}")
        print(f"mean round latency:  "
              f"{run.metrics.wall_time / max(run.metrics.num_rounds, 1) * 1e3:.1f} ms "
              f"(target 10 ms)")


if __name__ == "__main__":
    strict_mode_is_byte_identical()
    relaxed_mode_trades_staleness_for_overlap()
    auto_batch_sizing()
