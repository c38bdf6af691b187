"""Pipelined vs. lock-step round throughput on the real multiprocess backend.

Measures steady-state round throughput (items/s) at ``p=4`` worker
processes for three schedules of the same workload:

* **lock-step** — :class:`repro.DistributedSamplingRun` with
  ``pipeline="off"`` (insert and selection serialised, the pre-pipeline
  baseline),
* **strict pipeline** — next batch materialised in worker background
  threads during the selection; byte-identical samples,
* **relaxed pipeline** — batch *and* key generation overlapped under a
  one-round-stale threshold (the paper's asynchrony trade), reporting the
  measured overlap efficiency and the stale-candidate overhead.

Gates:

* **relaxed vs lock-step** — with at least ``P + 1`` usable CPU cores
  (the workers' prepare threads need spare cycles next to the selection),
  the relaxed pipeline must be at least as fast as lock-step
  (``MIN_RATIO_MULTI_CORE``, 1.0).  On machines with fewer cores — e.g.
  single-core CI sandboxes, where the background prepare *competes* with
  the selection for the same CPU instead of overlapping it — that claim
  is physically unenforceable, so the gate falls back to the conservative
  floor ``MIN_RATIO_FEW_CORES`` (0.7, catching pathological regressions
  only) and records the strict gate as skipped; pass ``--require-ratio``
  to enforce the multi-core gate regardless.
* **absolute throughput** — lock-step and relaxed throughput must not
  regress by more than ``--max-regression`` (default 2x) against the
  conservatively committed baseline in
  ``benchmarks/baselines/bench_pipeline_baseline.json``
  (see ``benchmarks/baseline_gate.py``; refresh with ``--update-baseline``).

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --output BENCH_pipeline.json
    PYTHONPATH=src python benchmarks/bench_pipeline.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
from baseline_gate import compare_to_baseline, load_baseline, write_conservative_baseline
from harness import write_bench_json

from repro.core import DistributedSamplingRun

ALGORITHM = "ours-8"
K = 1_000
P = 4
BATCH_SIZE = 65_536
ROUNDS = 6
WARMUP_ROUNDS = 2
SEED = 7
#: relaxed must be no slower than lock-step where real overlap is possible
MIN_RATIO_MULTI_CORE = 1.0
#: conservative floor on few-core machines (prepare competes for the CPU)
MIN_RATIO_FEW_CORES = 0.7
DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "bench_pipeline_baseline.json"


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _measure(make_run) -> dict:
    start = time.perf_counter()
    with make_run() as run:
        metrics = run.run(ROUNDS)
        sample = np.sort(run.sample_ids())
    return {
        "rounds": metrics.num_rounds,
        "total_items": metrics.total_items,
        "wall_time_s": metrics.wall_time,
        "items_per_s": metrics.wall_throughput_total(),
        "seconds_per_round": metrics.wall_time / max(metrics.num_rounds, 1),
        "overlap_saved_s": metrics.total_overlap_saved,
        "overlap_efficiency": metrics.overlap_efficiency(),
        "stale_extra_candidates": metrics.total_stale_extra_candidates,
        "setup_plus_run_s": time.perf_counter() - start,
        "_sample": sample,
    }


def run_suite() -> dict:
    common = dict(
        k=K, p=P, batch_size=BATCH_SIZE, warmup_rounds=WARMUP_ROUNDS, seed=SEED
    )
    print(f"workload: {ALGORITHM}, k={K}, p={P}, batch={BATCH_SIZE}, rounds={ROUNDS}")

    lockstep = _measure(lambda: DistributedSamplingRun(ALGORITHM, comm="process", **common))
    print(f"  lock-step: {lockstep['items_per_s']:>12,.0f} items/s")
    strict = _measure(
        lambda: DistributedSamplingRun(ALGORITHM, comm="process", pipeline="strict", **common)
    )
    print(
        f"  strict:    {strict['items_per_s']:>12,.0f} items/s "
        f"(overlap saved {strict['overlap_saved_s'] * 1e3:.1f} ms, "
        f"efficiency {strict['overlap_efficiency']:.2f})"
    )
    relaxed = _measure(
        lambda: DistributedSamplingRun(ALGORITHM, comm="process", pipeline="relaxed", **common)
    )
    print(
        f"  relaxed:   {relaxed['items_per_s']:>12,.0f} items/s "
        f"(overlap saved {relaxed['overlap_saved_s'] * 1e3:.1f} ms, "
        f"efficiency {relaxed['overlap_efficiency']:.2f}, "
        f"stale extra {relaxed['stale_extra_candidates']})"
    )

    strict_identical = bool(np.array_equal(lockstep.pop("_sample"), strict.pop("_sample")))
    relaxed.pop("_sample")
    results = {
        "algorithm": ALGORITHM,
        "k": K,
        "p": P,
        "batch_size": BATCH_SIZE,
        "rounds": ROUNDS,
        "warmup_rounds": WARMUP_ROUNDS,
        "lockstep": lockstep,
        "strict": strict,
        "relaxed": relaxed,
        "strict_sample_identical_to_lockstep": strict_identical,
        "relaxed_vs_lockstep_ratio": relaxed["items_per_s"] / lockstep["items_per_s"],
        "strict_vs_lockstep_ratio": strict["items_per_s"] / lockstep["items_per_s"],
        # flat keys for the shared baseline gate
        "lockstep_items_per_s": lockstep["items_per_s"],
        "relaxed_items_per_s": relaxed["items_per_s"],
    }
    print(
        f"  relaxed/lock-step ratio: {results['relaxed_vs_lockstep_ratio']:.3f}x, "
        f"strict sample identical: {strict_identical}"
    )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=Path("BENCH_pipeline.json"))
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--max-regression", type=float, default=2.0)
    parser.add_argument(
        "--require-ratio",
        action="store_true",
        help="enforce the multi-core relaxed >= lock-step gate even on few-core machines",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the measured numbers (halved, to stay conservative) as the new baseline",
    )
    args = parser.parse_args(argv)

    results = run_suite()
    cpus = usable_cpus()
    results["usable_cpus"] = cpus
    enough_cores = cpus >= P + 1 or args.require_ratio
    min_ratio = MIN_RATIO_MULTI_CORE if enough_cores else MIN_RATIO_FEW_CORES
    results["ratio_gate"] = {
        "enforced_min_ratio": min_ratio,
        "multi_core_gate_skipped": not enough_cores,
    }
    write_bench_json(args.output, results, bench="bench_pipeline")

    failures = []
    if not results["strict_sample_identical_to_lockstep"]:
        failures.append("strict pipeline sample differs from the lock-step sample")
    ratio = results["relaxed_vs_lockstep_ratio"]
    if ratio < min_ratio:
        failures.append(
            f"relaxed/lock-step throughput ratio {ratio:.3f} below the "
            f"required {min_ratio:g}"
        )
    if not enough_cores:
        print(
            f"  NOTE: only {cpus} usable core(s) < {P + 1}; relaxed >= lock-step gate "
            f"recorded as skipped, conservative floor {MIN_RATIO_FEW_CORES:g} enforced instead"
        )

    if args.update_baseline:
        write_conservative_baseline(
            args.baseline,
            {name: results[name] for name in ("lockstep_items_per_s", "relaxed_items_per_s")},
        )
        print(f"updated baseline {args.baseline}")
    elif not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update-baseline to create one")
        return 1
    else:
        failures.extend(
            compare_to_baseline(results, load_baseline(args.baseline), args.max_regression)
        )

    if failures:
        print("\nBENCHMARK GATE FAILED:")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"\nall gates passed (relaxed ratio {ratio:.3f} >= {min_ratio:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
