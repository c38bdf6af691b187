"""Observability gates: tracing-off overhead and Chrome-trace validity.

Two properties of the ``repro.obs`` layer are CI-gated here:

* **tracing-off overhead < 2%** — every instrumentation point calls the
  shared :data:`~repro.obs.tracer.NULL_TRACER` when tracing is off, so
  the overhead of an untraced run is (calls per round) x (cost of one
  Null call).  Both factors are measured on the same machine — the call
  count from a traced run of the identical workload (every recorded
  event is one instrumentation call), the per-call cost from a tight
  ``with NULL_TRACER.span(...)`` loop — which makes the gate
  machine-independent: a slow CI runner inflates numerator and
  denominator alike.  The estimate is conservative (three Null calls
  charged per event: constructor plus ``__enter__``/``__exit__``).
* **trace validity** — an exported Chrome trace of a ``p=4`` relaxed
  pipelined run must load as strict JSON, pass the trace-event schema
  check, contain one aligned track per PE plus the coordinator, and —
  together with two small simulated runs (windowed, gather) — cover
  every phase in :data:`repro.runtime.metrics.PHASES`.

The untraced pipelined throughput is additionally gated against the
conservative committed baseline in
``benchmarks/baselines/bench_obs_baseline.json`` (see
``benchmarks/baseline_gate.py``; refresh with ``--update-baseline``),
and the traced run's sample must be byte-identical to the untraced one.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py --output BENCH_obs.json --trace BENCH_obs_trace.json
    PYTHONPATH=src python benchmarks/bench_obs.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
from baseline_gate import compare_to_baseline, load_baseline, write_conservative_baseline
from harness import write_bench_json

from repro.core import DistributedSamplingRun
from repro.obs import TraceCollector, validate_chrome_trace
from repro.obs.tracer import NULL_TRACER
from repro.runtime.metrics import PHASES

ALGORITHM = "ours-8"
K = 1_000
P = 4
BATCH_SIZE = 32_768
ROUNDS = 5
WARMUP_ROUNDS = 1
SEED = 11
#: hard ceiling on the estimated tracing-off overhead fraction
MAX_OFF_OVERHEAD = 0.02
#: Null calls charged per recorded event (span ctor + enter + exit)
CALLS_PER_EVENT = 3
DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "bench_obs_baseline.json"


def null_call_cost(calls: int = 200_000) -> float:
    """Best-of-3 measured seconds per ``with NULL_TRACER.span(...)`` cycle."""
    span = NULL_TRACER.span
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            with span("x", cat="bench"):
                pass
        best = min(best, time.perf_counter() - start)
    return best / calls


def _pipelined(trace=None) -> DistributedSamplingRun:
    return DistributedSamplingRun(
        ALGORITHM,
        k=K,
        p=P,
        batch_size=BATCH_SIZE,
        warmup_rounds=WARMUP_ROUNDS,
        seed=SEED,
        comm="process",
        pipeline="relaxed",
        trace=trace,
    )


def _measure_untraced() -> dict:
    with _pipelined() as run:
        metrics = run.run(ROUNDS)
        sample = np.sort(run.sample_ids())
    return {
        "rounds": metrics.num_rounds,
        "total_items": metrics.total_items,
        "wall_time_s": metrics.wall_time,
        "items_per_s": metrics.wall_throughput_total(),
        "seconds_per_round": metrics.wall_time / max(metrics.num_rounds, 1),
        "_sample": sample,
    }


def _measure_traced(trace_path: Path) -> dict:
    collector = TraceCollector()
    with _pipelined(trace=collector) as run:
        run.run(ROUNDS)
        sample = np.sort(run.sample_ids())
    trace = collector.chrome_trace()
    collector.export(trace_path)
    events = [e for e in trace["traceEvents"] if e["ph"] != "M"]
    return {
        "trace_path": str(trace_path),
        "events": len(events),
        "events_per_round": len(events) / ROUNDS,
        "tracks": collector.tracks(),
        "clock_offsets_s": {str(r): o for r, o in collector.clock_offsets.items()},
        "_trace": trace,
        "_sample": sample,
    }


def _phase_coverage(traces) -> dict:
    """Which of the paper's PHASES appear as phase spans across traces."""
    seen = set()
    for trace in traces:
        for event in trace["traceEvents"]:
            if event.get("cat") == "phase" and event["name"] in PHASES:
                seen.add(event["name"])
    return {name: (name in seen) for name in PHASES}


def _auxiliary_traces() -> list:
    """Tiny simulated runs covering the phases the pipeline never runs.

    The pipelined workload exercises prepare/insert/select/threshold/
    overlap; ``expire`` needs a sliding window and ``gather`` the
    centralised baseline, so one small simulated run of each fills in
    the remaining PHASES for the coverage gate.
    """
    traces = []
    for kwargs in (
        dict(window=400),  # windowed "ours": insert/expire/select/threshold
        dict(),  # centralised "gather": insert/gather/threshold
    ):
        algorithm = "ours" if "window" in kwargs else "gather"
        collector = TraceCollector()
        with DistributedSamplingRun(
            algorithm, k=50, p=2, batch_size=500, seed=3, trace=collector, **kwargs
        ) as run:
            run.run(3)
        traces.append(collector.chrome_trace())
    return traces


def run_suite(trace_path: Path) -> dict:
    print(f"workload: {ALGORITHM}, k={K}, p={P}, batch={BATCH_SIZE}, rounds={ROUNDS}")
    untraced = _measure_untraced()
    print(f"  untraced: {untraced['items_per_s']:>12,.0f} items/s")
    traced = _measure_traced(trace_path)
    print(
        f"  traced:   {traced['events']} events over {ROUNDS} rounds, "
        f"tracks {traced['tracks']}"
    )

    per_call = null_call_cost()
    estimated = (
        traced["events_per_round"] * CALLS_PER_EVENT * per_call
    ) / untraced["seconds_per_round"]
    print(
        f"  Null call {per_call * 1e9:,.0f} ns x {traced['events_per_round']:.0f} "
        f"events/round x {CALLS_PER_EVENT} -> estimated off-overhead "
        f"{estimated * 100:.4f}% of a {untraced['seconds_per_round'] * 1e3:.1f} ms round"
    )

    coverage = _phase_coverage([traced.pop("_trace")] + _auxiliary_traces())
    print(f"  phase coverage: {coverage}")

    samples_identical = bool(
        np.array_equal(untraced.pop("_sample"), traced.pop("_sample"))
    )
    return {
        "algorithm": ALGORITHM,
        "k": K,
        "p": P,
        "batch_size": BATCH_SIZE,
        "rounds": ROUNDS,
        "untraced": untraced,
        "traced": traced,
        "null_call_cost_s": per_call,
        "calls_per_event_charged": CALLS_PER_EVENT,
        "estimated_off_overhead_fraction": estimated,
        "max_off_overhead_fraction": MAX_OFF_OVERHEAD,
        "phase_coverage": coverage,
        "samples_identical_traced_vs_untraced": samples_identical,
        # flat key for the shared baseline gate
        "untraced_items_per_s": untraced["items_per_s"],
    }


def check_trace_file(path: Path, expected_p: int) -> list:
    """Validate the exported trace file; returns failure messages."""
    failures = []
    try:
        trace = json.loads(path.read_text())
        events = validate_chrome_trace(trace)
    except (OSError, ValueError) as exc:
        return [f"exported trace {path} invalid: {exc}"]
    names = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    expected = {"coordinator"} | {f"pe{r}" for r in range(expected_p)}
    if not expected <= names:
        failures.append(f"trace tracks {sorted(names)} missing {sorted(expected - names)}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=Path("BENCH_obs.json"))
    parser.add_argument(
        "--trace",
        type=Path,
        default=Path("BENCH_obs_trace.json"),
        metavar="out.json",
        help="where the Chrome trace of the traced run is exported",
    )
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--max-regression", type=float, default=2.0)
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the measured numbers (halved, to stay conservative) as the new baseline",
    )
    args = parser.parse_args(argv)

    results = run_suite(args.trace)
    write_bench_json(args.output, results, bench="bench_obs")

    failures = []
    if results["estimated_off_overhead_fraction"] >= MAX_OFF_OVERHEAD:
        failures.append(
            f"estimated tracing-off overhead "
            f"{results['estimated_off_overhead_fraction'] * 100:.3f}% "
            f">= {MAX_OFF_OVERHEAD * 100:g}% budget"
        )
    if not results["samples_identical_traced_vs_untraced"]:
        failures.append("traced sample differs from the untraced sample")
    missing = [name for name, seen in results["phase_coverage"].items() if not seen]
    if missing:
        failures.append(f"phases never traced: {missing}")
    failures.extend(check_trace_file(args.trace, P))

    if args.update_baseline:
        write_conservative_baseline(
            args.baseline, {"untraced_items_per_s": results["untraced_items_per_s"]}
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
    print(
        f"\nall gates passed (off-overhead "
        f"{results['estimated_off_overhead_fraction'] * 100:.4f}% < "
        f"{MAX_OFF_OVERHEAD * 100:g}%, trace valid)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
