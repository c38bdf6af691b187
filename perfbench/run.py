"""The repository benchmark: one workload per call, end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload proc-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``proc-small``,
``proc-large``, ``sim-p16`` and ``seq-baseline``; ``all`` runs the four
in turn.  Each one imports the program from the checkout's ``src/``
tree, makes its input from ``--seed``, warms up until the threshold is
set, then runs closed-loop rounds for ``--seconds`` seconds and checks
every output.

``--trace 0`` prints the end-to-end metrics: ``items_per_s_p99``,
``round_ms_p1``, ``query_ms_p1``, ``setup_s`` (median of several
constructions spread over the run) and ``peak_rss_mb`` (by a fixed
round, see :func:`drive`).  The timings are low quantiles because other
tenants of a shared machine only ever add time (see :func:`measure`);
the medians and p90s of the same samples are printed too, marked
``info``, and are not in the result line.  ``error_rate`` is printed
as well and is the ``failed``/``attempted`` pair of the result line.
``--trace 1`` runs the same untraced measurement, then fixed-length
traced passes, and prints the per-layer metrics instead (see
``spans.py``); a layer the workload does not run reads 0, e.g. the
network on ``seq-baseline``, the stream on ``proc-large`` (its workers
make their own batches), and dispatch wait and ``process_over_sim`` off
the process backend.  Every metric is printed as ``name value unit``; the last
line of standard output is the JSON result.  Records of the run (the
machine it ran on, all metrics, and for traced runs the spans) are
written under ``perfbench/out/``.

Exit status: 0 when every check passed, 1 when an output check failed,
2 when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 11

END_TO_END_UNITS = {
    "items_per_s_p99": "1/s",
    "round_ms_p1": "ms",
    "query_ms_p1": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: printed beside the end-to-end metrics, but too exposed to other
#: tenants of a shared machine to gate on (see :func:`measure`)
INFO_UNITS = {
    "items_per_s_p50": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
}
#: per-round counts that must repeat exactly for a given seed; the two
#: traced passes must agree on them (the ledger counts are exact too, but
#: the second pass's include the trace collector's own messages)
EXACT_COUNTS = (
    "network.run_per_pe_calls",
    "network.collective_calls",
    "core.insertions",
    "selection.recursion_depth",
    "selection.pivots_proposed",
)
PER_LAYER_UNITS = {
    "stream.next_round_ms": "ms",
    "network.run_per_pe_calls": "count",
    "network.collective_calls": "count",
    "network.run_per_pe_ms": "ms",
    "network.collective_ms": "ms",
    "network.dispatch_wait_ms": "ms",
    "network.ledger_messages": "count",
    "network.ledger_words": "count",
    "network.process_over_sim": "ratio",
    "selection.threshold_update_ms": "ms",
    "selection.propose_ms": "ms",
    "selection.count_ms": "ms",
    "selection.recursion_depth": "count",
    "selection.pivots_proposed": "count",
    "selection.ran_share": "ratio",
    "core.insert_ms": "ms",
    "core.prune_ms": "ms",
    "core.insertions": "count",
    "core.accept_ratio": "ratio",
    "pipeline.prefetch_ms": "ms",
    "pipeline.join_ms": "ms",
    "pipeline.overlap_saved_ms": "ms",
    "runtime.driver_self_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.bytes": "B",
    "obs.trace_overhead": "ratio",
}


class Tally:
    """Attempted operations and the ones that raised or failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problem: Optional[str], what: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr)


@dataclass
class Loop:
    """What a closed loop measured, accumulated over :func:`drive` calls."""

    round_s: List[float] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    #: summed ``observe()`` deltas across the rounds
    observed: Optional[tuple] = None
    #: the ids read after round ``kept_round``
    kept: object = None
    kept_round: int = 0
    #: peak resident memory (MiB) of the subject's processes by ``kept_round``
    kept_rss_mib: float = 0.0


def drive(subject, tally: Tally, loop: Loop, *, rounds: Optional[int] = None,
          seconds: Optional[float] = None, recorder=None,
          observe: Optional[Callable[[], tuple]] = None, keep_at: Optional[int] = None) -> None:
    """Closed loop: one round, then one ``sample_ids()`` read, until
    ``rounds`` rounds ran or ``seconds`` passed.  With ``keep_at``, the
    read after that round (or the last one before it) is kept for the reference
    check, with the peak memory so far: the program keeps per-round
    records, so its memory grows with the round count, which a time-bound
    run does not fix."""
    from workloads import check_ids, check_round

    previous = subject.threshold
    deadline = None if seconds is None else time.perf_counter() + seconds
    done = 0
    while (rounds is None or done < rounds) and (
        deadline is None or time.perf_counter() < deadline
    ):
        index = subject.rounds_done
        if recorder is not None:
            recorder.round = index
        data = subject.next_input()
        before = observe() if observe is not None else None
        start = time.perf_counter()
        try:
            subject.ingest(data)
        except Exception:
            traceback.print_exc()
            tally.record("raised", f"round {index}")
            break
        loop.round_s.append(time.perf_counter() - start)
        if observe is not None:
            delta = tuple(b - a for a, b in zip(before, observe()))
            loop.observed = delta if loop.observed is None else tuple(
                map(sum, zip(loop.observed, delta))
            )
        subject.rounds_done = index + 1
        done += 1
        threshold = subject.threshold
        tally.record(check_round(threshold, previous), f"round {index}")
        previous = threshold
        start = time.perf_counter()
        try:
            ids = subject.query()
        except Exception:
            traceback.print_exc()
            tally.record("raised", f"query after round {index}")
            break
        loop.query_s.append(time.perf_counter() - start)
        items_fed = subject.rounds_done * subject.workload.items_per_round
        tally.record(check_ids(ids, items_fed), f"query after round {index}")
        if keep_at is not None and subject.rounds_done <= keep_at:
            loop.kept, loop.kept_round = ids, subject.rounds_done
            loop.kept_rss_mib = peak_rss_mib(subject.worker_pids())


def slice_rate(round_s: List[float], items_per_round: int, q: int,
               slice_s: float = 0.05) -> float:
    """The ``q``-th percentile over consecutive ~``slice_s`` slices of round
    time of the items ingested per second of round time; a tail under half
    a slice is dropped.

    Every round of a slice counts, so a cost paid every few rounds lowers
    the slice's rate; a high percentile of slices, not one run-wide ratio,
    so that the stretches in which other tenants of the machine slow it
    down do not set the figure.
    """
    rates: List[float] = []
    rounds = busy = 0
    for seconds in round_s:
        rounds += 1
        busy += seconds
        if busy >= slice_s:
            rates.append(rounds * items_per_round / busy)
            rounds = busy = 0
    if rounds and (busy >= slice_s / 2 or not rates):
        rates.append(rounds * items_per_round / busy)
    return percentile(rates, q)


def percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def percentile_ms(seconds: List[float], q: int) -> float:
    return percentile(seconds, q) * 1e3


def peak_rss_mib(pids: List[int]) -> float:
    """Summed VmHWM (peak resident set) of this process and ``pids``."""
    total_kib = 0
    for pid in ["self", *pids]:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
    return total_kib / 1024.0


def reap_children() -> None:
    """Wait for every child process; none may outlive the benchmark."""
    for child in multiprocessing.active_children():
        child.join(10)
        if child.is_alive():
            child.terminate()
            child.join(10)


# ---------------------------------------------------------------------------
# the untraced measurement (end-to-end metrics)
# ---------------------------------------------------------------------------
def timed_setup(workload, seed: int):
    from workloads import make_subject

    gc.collect()
    start = time.perf_counter()
    subject = make_subject(workload, seed)
    return subject, time.perf_counter() - start


def measure(workload, seed: int, seconds: float, tally: Tally) -> Dict[str, object]:
    """The untraced run: warm up, then ``seconds`` of closed-loop rounds.

    The measurement is cut into ``SETUP_REPS - 1`` slices; after each
    one a throwaway subject is built (and closed) to time set-up again,
    so the set-up samples spread over the run like the rounds do.

    The gated timings are low quantiles: on a shared virtual machine the
    host switches, for fractions of a second up to minutes at a time, into
    a state in which the same rounds and reads take up to 2x longer, and
    the share of a run spent in it varies from run to run.  A median or
    p90 then lands in one mode or the other; the 1st percentile of rounds
    and reads, and the 99th percentile of the rates of ~50 ms slices, stay
    in the fast mode as long as a run spends a few percent of its time
    there, and track the program's own cost.  The medians and p90s are returned under ``info``.
    """
    from workloads import check_final, reference_check

    subject, first_setup = timed_setup(workload, seed)
    setup_s = [first_setup]
    loop = Loop()
    try:
        drive(subject, tally, Loop(), rounds=workload.warmup_rounds)
        for _ in range(SETUP_REPS - 1):
            gc.collect()
            drive(subject, tally, loop, seconds=seconds / (SETUP_REPS - 1),
                  keep_at=workload.reference_rounds)
            spare, spent = timed_setup(workload, seed)
            spare.close()
            setup_s.append(spent)
        rounds = subject.rounds_done
        tally.record(check_final(subject, rounds * workload.items_per_round), "final sample")
        kernel_tier = subject.kernel_tier
    finally:
        subject.close()
        reap_children()
    problem, reference_s = reference_check(workload, seed, loop.kept_round, loop.kept)
    tally.record(problem, "reference run")
    round_s, query_s = loop.round_s, loop.query_s
    if len(round_s) < 1000:
        print(f"warning: {len(round_s)} measured rounds leave fewer than 10 beyond p1",
              file=sys.stderr)
    metrics = {
        "items_per_s_p99": slice_rate(round_s, workload.items_per_round, 99),
        "round_ms_p1": percentile_ms(round_s, 1),
        "query_ms_p1": percentile_ms(query_s, 1),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": loop.kept_rss_mib,
    }
    info = {
        "items_per_s_p50": slice_rate(round_s, workload.items_per_round, 50),
        "round_ms_p50": percentile_ms(round_s, 50),
        "round_ms_p90": percentile_ms(round_s, 90),
        "query_ms_p50": percentile_ms(query_s, 50),
        "query_ms_p90": percentile_ms(query_s, 90),
    }
    return {
        "metrics": metrics,
        "info": info,
        "measured_rounds": len(round_s),
        "kernel_tier": kernel_tier,
        "round_s": round_s,
        "reference_s": reference_s,
    }


# ---------------------------------------------------------------------------
# the traced passes (per-layer metrics)
# ---------------------------------------------------------------------------
def traced_pass(workload, seed: int, tally: Tally, *, collector: bool) -> Dict[str, object]:
    """Fixed-length traced run; ``collector`` also switches on the
    program's own trace collector for worker-side command times."""
    from spans import SpanRecorder, dispatch_wait_ms, instrument, layer_metrics
    from workloads import check_final, make_subject

    distributed = workload.backend != "sequential"
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        options = {"trace": collector, "checkpoint_dir": scratch} if distributed else {}
        subject = make_subject(workload, seed, **options)
        recorder = SpanRecorder()
        try:
            instrument(recorder, subject)
            if distributed:
                ledger = subject.run.comm.ledger
                observe = lambda: (ledger.total_messages, ledger.total_words)  # noqa: E731
            else:
                # ReservoirSampler does not surface its insertion count; the
                # sequential sampler behind it does
                impl = subject.sampler._impl
                observe = lambda: (impl.insertions,)  # noqa: E731
            drive(subject, tally, Loop(), rounds=workload.warmup_rounds)
            recorder.enabled = True
            rounds = workload.traced_rounds
            loop = Loop()
            drive(subject, tally, loop, rounds=rounds, recorder=recorder, observe=observe)
            observed = loop.observed
            recorder.enabled = False
            # the wrappers are closures, which a checkpoint cannot pickle
            recorder.restore()
            start = time.perf_counter()
            path = subject.save(scratch)
            save_ms = (time.perf_counter() - start) * 1e3
            checkpoint_bytes = os.path.getsize(path)
            tally.record(
                check_final(subject, subject.rounds_done * workload.items_per_round),
                "traced final sample",
            )
            records = subject.run.metrics.rounds[-rounds:] if distributed else []
        finally:
            subject.close()
            reap_children()
    metrics, round_ms = layer_metrics(recorder.spans, rounds)
    if distributed:
        items = sum(r.batch_items for r in records)
        insertions = sum(r.total_insertions for r in records)
        stats = [r.selection_stats for r in records if r.selection_stats is not None]
        metrics.update({
            "network.ledger_messages": observed[0] / rounds,
            "network.ledger_words": observed[1] / rounds,
            "selection.recursion_depth": sum(s.recursion_depth for s in stats) / rounds,
            "selection.pivots_proposed": sum(s.pivots_proposed for s in stats) / rounds,
            "selection.ran_share": sum(r.selection_ran for r in records) / rounds,
            "pipeline.overlap_saved_ms": sum(r.overlap_saved_time for r in records) * 1e3 / rounds,
        })
    else:
        items = rounds * workload.items_per_round
        insertions = observed[0]
        # the whole sequential round is the core layer
        metrics["core.insert_ms"] = sum(round_ms) / rounds
        metrics["runtime.driver_self_ms"] = 0.0
        for name in ("network.ledger_messages", "network.ledger_words",
                     "selection.recursion_depth", "selection.pivots_proposed",
                     "selection.ran_share", "pipeline.overlap_saved_ms"):
            metrics[name] = 0.0
    metrics["core.insertions"] = insertions / rounds
    metrics["core.accept_ratio"] = insertions / items
    metrics["checkpoint.save_ms"] = save_ms
    metrics["checkpoint.bytes"] = float(checkpoint_bytes)
    return {
        "metrics": metrics,
        "round_ms": round_ms,
        "recorder": recorder,
        "dispatch_wait_ms": (
            dispatch_wait_ms(recorder.spans, subject.run.trace.events(), rounds)
            if collector else None
        ),
    }


def trace_layers(workload, seed: int, tally: Tally, untraced: Dict[str, object]) -> Dict[str, float]:
    # the untraced run's first measured rounds are the traced passes' rounds
    same_rounds = untraced["round_s"][: workload.traced_rounds]
    plain = traced_pass(workload, seed, tally, collector=False)
    metrics = dict(plain["metrics"])
    metrics["network.dispatch_wait_ms"] = 0.0
    if workload.backend == "process":
        # second pass with the program's collector, for worker command times;
        # its counts must equal the first pass's exactly
        collected = traced_pass(workload, seed, tally, collector=True)
        metrics["network.dispatch_wait_ms"] = collected["dispatch_wait_ms"]
        for name in EXACT_COUNTS:
            first, second = plain["metrics"][name], collected["metrics"][name]
            tally.record(
                None if first == second else f"{first!r} then {second!r}",
                f"exact count {name} across traced passes",
            )
        # the reference replayed the same rounds on the simulator
        metrics["network.process_over_sim"] = (
            statistics.median(same_rounds) / statistics.median(untraced["reference_s"])
        )
    else:
        # no process backend on this workload: the ratio has no base
        metrics["network.process_over_sim"] = 0.0
    metrics["obs.trace_overhead"] = (
        statistics.median(plain["round_ms"]) / (statistics.median(same_rounds) * 1e3)
    )
    OUT.mkdir(exist_ok=True)
    plain["recorder"].write(OUT / f"spans-{workload.name}-seed{seed}.json")
    return {name: metrics[name] for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
def environment() -> Dict[str, object]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "load_avg_1min": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own process (peak memory is per
    process); the result line gathers them as ``<workload>/<metric>``."""
    from workloads import WORKLOADS

    attempted = failed = 0
    metrics: Dict[str, object] = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAILED {name}: no result (exit {child.returncode})", file=sys.stderr)
            attempted, failed = attempted + 1, failed + 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{metric}": v for metric, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()
    tally = Tally()
    untraced = measure(workload, args.seed, args.seconds, tally)
    env["kernel_tier"] = untraced["kernel_tier"]
    if args.trace:
        metrics, units = trace_layers(workload, args.seed, tally, untraced), PER_LAYER_UNITS
    else:
        metrics, units = untraced["metrics"], END_TO_END_UNITS

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} measured_rounds {untraced['measured_rounds']}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    if not args.trace:
        for name, value in untraced["info"].items():
            print(f"info {name} {value!r} {INFO_UNITS[name]}")
    print(f"error_rate {tally.failed / tally.attempted!r} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, measured_rounds=untraced["measured_rounds"],
                  info=untraced["info"])
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
