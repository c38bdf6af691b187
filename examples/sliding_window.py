#!/usr/bin/env python
"""Sliding-window and time-decayed reservoir sampling.

Production stream systems usually want *recency*: sample from the last
``W`` items, or weight items down exponentially as they age.  This example
mirrors ``examples/quickstart.py`` for the windowed modes:

1. :class:`repro.ReservoirSampler` with ``window=W`` — a sequential sample
   over the last ``W`` items only, demonstrated on a bursty stream whose
   old bursts an unbounded sampler would never forget.
2. :class:`repro.ReservoirSampler` with ``decay=lam`` — exponential
   time-decay: item ``i`` is sampled proportionally to ``w_i * lam^age``.
3. :class:`repro.DistributedSamplingRun` with ``window=W`` — the
   distributed sliding-window sampler: per-PE candidate buffers, timestamp
   eviction, and a re-selected global sample boundary each round.

A longer walk-through lives in ``docs/windowed-sampling.md``.  Run with::

    python examples/sliding_window.py
"""

from __future__ import annotations

import numpy as np

from repro import DistributedSamplingRun, ReservoirSampler


def sliding_window_quickstart() -> None:
    print("=" * 72)
    print("1. Sliding window: sample only the last W items")
    print("=" * 72)

    n_items, window, k = 100_000, 10_000, 500
    # a bursty stream: heavy items early on, ordinary items afterwards
    weights = np.ones(n_items)
    weights[:20_000] *= 50.0  # the (long-gone) burst

    unbounded = ReservoirSampler(k=k, weighted=True, seed=7)
    windowed = ReservoirSampler(k=k, weighted=True, seed=7, window=window)
    for start in range(0, n_items, 10_000):
        stop = start + 10_000
        ids = np.arange(start, stop)
        unbounded.feed(ids, weights[start:stop])
        windowed.feed(ids, weights[start:stop])

    stale = int((unbounded.sample_ids() < n_items - window).sum())
    print(f"items seen                : {windowed.items_seen:,}")
    print(f"window                    : last {window:,} items")
    print(f"sample size               : {len(windowed.sample_ids())}")
    print(f"stale ids, unbounded      : {stale} of {k}  <- stuck on the old burst")
    print(f"stale ids, windowed       : {int((windowed.sample_ids() < n_items - window).sum())}")
    print(f"candidate buffer          : {windowed.buffer_size} items "
          f"(~ k * ln(W/k), not W)")
    print()


def decayed_quickstart() -> None:
    print("=" * 72)
    print("2. Exponential time decay: weight ~ w * lambda^age")
    print("=" * 72)

    n_items, k, lam = 50_000, 500, 0.9995
    sampler = ReservoirSampler(k=k, weighted=False, seed=3, decay=lam)
    for start in range(0, n_items, 10_000):
        sampler.feed(np.arange(start, start + 10_000))

    sample = sampler.sample_ids()
    half_life = np.log(0.5) / np.log(lam)
    print(f"items seen                : {sampler.items_seen:,}")
    print(f"decay factor              : {lam} (half-life ~ {half_life:,.0f} items)")
    print(f"sample size               : {len(sample)}")
    print(f"mean sampled arrival index: {sample.mean():,.0f} of {n_items:,} "
          "<- biased towards recent")
    print(f"oldest sampled item       : {sample.min():,}")
    print()


def distributed_window_quickstart() -> None:
    print("=" * 72)
    print("3. Distributed sliding window (simulated, p = 16 PEs)")
    print("=" * 72)

    run = DistributedSamplingRun(
        "ours-8",          # 8-pivot selection re-establishes the boundary
        k=1_000,
        p=16,
        batch_size=2_000,  # items per PE per mini-batch
        window=64_000,     # last 64k items across all PEs stay live
        seed=3,
    )
    metrics = run.run(rounds=10)

    emitted = metrics.total_items
    sample = run.sample_ids()
    print(f"rounds processed    : {metrics.num_rounds}")
    print(f"items processed     : {emitted:,}")
    print(f"sample size         : {len(sample):,}")
    print(f"oldest sampled item : {sample.min():,} (window floor: {emitted - 64_000:,})")
    print(f"candidates evicted  : {metrics.total_evicted:,}")
    print(f"simulated time      : {metrics.simulated_time * 1e3:.3f} ms")
    print("running-time composition (incl. the window's expire phase):")
    for phase, fraction in sorted(metrics.phase_fractions().items()):
        print(f"    {phase:<10s} {fraction * 100:5.1f} %")
    print("(comm='process' with the same seed yields byte-identical samples)")
    print()


if __name__ == "__main__":
    sliding_window_quickstart()
    decayed_quickstart()
    distributed_window_quickstart()
