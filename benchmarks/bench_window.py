"""CI benchmark smoke for the windowed samplers, with a regression gate.

Measures steady-state ingestion throughput (items/s) of

* the unbounded sequential sampler (dense keys + merge store, the
  reference),
* the sequential sliding-window sampler (suffix-top-k candidate buffer),
* the exponential time-decay sampler (log-space keys + merge store), and
* one full round of the distributed sliding-window sampler (simulated
  backend, including eviction and threshold recomputation),

writes the numbers to a JSON file (uploaded as a CI artifact) and fails
when any of them regressed by more than ``--max-regression`` (default 2x)
against the checked-in baseline in
``benchmarks/baselines/bench_window_baseline.json``.  Baseline numbers are
recorded conservatively (half of the measured throughput) so slower CI
runners do not false-fail.

The windowed-vs-unbounded throughput *ratio* is reported for context but
not hard-gated: both draw a dense key per item, and the window also pays
for the candidate-buffer scan, so it is expected to ingest slower than
the unbounded sampler.

Usage::

    PYTHONPATH=src python benchmarks/bench_window.py --output BENCH_window.json
    PYTHONPATH=src python benchmarks/bench_window.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
from baseline_gate import (
    best_of,
    compare_to_baseline,
    load_baseline,
    write_conservative_baseline,
)
from harness import write_bench_json

from repro.core import ReservoirSampler, make_distributed_sampler
from repro.network import SimComm
from repro.stream import ItemBatch, TimestampedMiniBatchStream

DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "bench_window_baseline.json"

K = 256
BATCH = 8_192
WINDOW = 4 * BATCH
N_BATCHES = 8


def _batches(n_batches: int = N_BATCHES, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        ItemBatch(
            ids=np.arange(i * BATCH, (i + 1) * BATCH),
            weights=rng.uniform(0.1, 100.0, BATCH),
        )
        for i in range(n_batches)
    ]


def _ingest_throughput(make_sampler, *, repeats: int = 3) -> float:
    batches = _batches()
    warmup = _batches(2, seed=1)
    best = float("inf")
    for _ in range(repeats):
        sampler = make_sampler()
        for batch in warmup:  # reach the steady state outside the timed region
            sampler.feed_batch(batch)
        start = time.perf_counter()
        for batch in batches:
            sampler.feed_batch(batch)
        best = min(best, time.perf_counter() - start)
    return N_BATCHES * BATCH / best


def bench_sequential() -> dict:
    unbounded = _ingest_throughput(lambda: ReservoirSampler(K, seed=7))
    windowed = _ingest_throughput(lambda: ReservoirSampler(K, seed=7, window=WINDOW))
    decayed = _ingest_throughput(lambda: ReservoirSampler(K, seed=7, decay=0.9999))
    return {
        "unbounded_ingest_items_per_s": unbounded,
        "window_ingest_items_per_s": windowed,
        "decayed_ingest_items_per_s": decayed,
        "window_vs_unbounded_ratio": windowed / unbounded,
    }


def bench_distributed_window_round() -> float:
    """Full distributed windowed round (insert + expire + select), items/s."""
    p, k, batch, repeats, rounds_per_repeat = 4, 256, 1_024, 3, 5
    sampler = make_distributed_sampler("ours", k, SimComm(p), seed=7, window=4 * p * batch)
    stream = TimestampedMiniBatchStream(p, batch, seed=8)
    for _ in range(3):  # warm into the steady state
        sampler.process_round(stream.next_round().batches)
    # each timing repeat consumes *fresh* rounds: stamps must keep increasing
    pending = iter(
        [stream.next_round().batches for _ in range(repeats * rounds_per_repeat)]
    )

    def run():
        for _ in range(rounds_per_repeat):
            sampler.process_round(next(pending))

    return rounds_per_repeat * p * batch / best_of(run, repeats=repeats)


def run_suite() -> dict:
    results = bench_sequential()
    results["distributed_window_round_items_per_s"] = bench_distributed_window_round()
    results["k"] = K
    results["batch"] = BATCH
    results["window"] = WINDOW
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=Path("BENCH_window.json"))
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--max-regression", type=float, default=2.0)
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the measured numbers (halved, to stay conservative) as the new baseline",
    )
    args = parser.parse_args(argv)

    results = run_suite()
    write_bench_json(args.output, results, bench="bench_window")
    for name, value in sorted(results.items()):
        if name.endswith("items_per_s"):
            print(f"  {name:44s} {value:>14,.0f} items/s")
        elif name.endswith("ratio"):
            print(f"  {name:44s} {value:>14.3f}x")

    if args.update_baseline:
        write_conservative_baseline(
            args.baseline,
            {name: value for name, value in results.items() if name.endswith("items_per_s")},
        )
        print(f"updated baseline {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update-baseline to create one")
        return 1
    failures = compare_to_baseline(results, load_baseline(args.baseline), args.max_regression)
    if failures:
        print("\nBENCHMARK REGRESSION:")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"\nno regression (budget {args.max_regression:g}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
