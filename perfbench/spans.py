"""Spans recorded around the program's public calls, and the per-layer
metrics derived from them.

The benchmark never changes the program: it replaces public methods on
the instances it built with wrappers that record a span (name, start,
end, parent span, round id) and call through.  Spans stay in memory and
are written out when the benchmark ends.  A span's *self time* is its
duration minus the time its child spans cover.

Wrapped layers (span names):

* ``round`` / ``query`` -- the run's entry points (``run`` or
  ``feed_batch``, and ``sample_ids``);
* ``next_round`` -- ``MiniBatchStream.next_round``;
* ``threshold_update`` -- ``OrderStatisticsEngine.threshold_update`` on
  every engine the sampler makes;
* ``run_per_pe:<kernel>``, ``run_per_pe_async:<kernel>``, ``join`` (the
  async future's ``wait``) and one span per collective call on the
  ``Communicator``.

Code inside worker processes cannot be wrapped from here.  For the
worker-side time of each command, the second traced pass of a process
workload switches on the program's own ``trace=True`` collector, whose
per-rank ``cmd.*`` spans are matched to the coordinator calls by time.
"""

from __future__ import annotations

import bisect
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

COLLECTIVES = ("broadcast", "reduce", "allreduce", "gather", "allgather", "scan", "barrier", "send")
#: layers whose time is the run_per_pe time of these kernels
KERNEL_LAYERS = {
    "insert_batch_kernel": "core.insert",
    "stream_insert_kernel": "core.insert",
    "ingest_prepared_kernel": "core.insert",
    "prune_kernel": "core.prune",
    "propose_pivots_kernel": "selection.propose",
    "count_le_kernel": "selection.count",
    "count_less_kernel": "selection.count",
    "window_counts_kernel": "selection.count",
}
TIMED_LAYERS = (
    "stream.next_round",
    "network.run_per_pe",
    "network.collective",
    "selection.threshold_update",
    "selection.propose",
    "selection.count",
    "core.insert",
    "core.prune",
    "pipeline.prefetch",
    "pipeline.join",
)
#: the worker-side span of each coordinator call kind (ProcessComm's command loop)
WORKER_COMMAND = {"run_per_pe": "cmd.run", "collective": "cmd.coll"}


def kernel_name(fn) -> str:
    fn = getattr(fn, "func", fn)  # functools.partial
    return getattr(fn, "__name__", type(fn).__name__)


def is_obs_kernel(fn) -> bool:
    """Kernels the trace collector itself dispatches (not program work)."""
    return getattr(getattr(fn, "func", fn), "__module__", "").startswith("repro.obs")


class SpanRecorder:
    """In-memory span store fed by the wrappers :meth:`wrap` installs."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, round id or -1]
        self.spans: List[list] = []
        self._open: List[int] = []
        self.round = -1
        self.enabled = False
        self._patched: List[tuple] = []

    def patch(self, obj, method: str, replacement) -> None:
        """Shadow ``obj.method`` by an instance attribute until :meth:`restore`."""
        setattr(obj, method, replacement)
        self._patched.append((obj, method))

    def restore(self) -> None:
        """Remove every patch, so the instances pickle (checkpoints) again."""
        while self._patched:
            obj, method = self._patched.pop()
            delattr(obj, method)

    def wrap(self, obj, method: str, label: Callable[..., Optional[str]]) -> None:
        """Replace ``obj.method`` by :meth:`recording` of it."""
        self.patch(obj, method, self.recording(getattr(obj, method), label))

    def recording(self, inner, label: Callable[..., Optional[str]]):
        """``inner`` wrapped to record a span while :attr:`enabled`.

        ``label(*args, **kwargs)`` names the span; ``None`` skips recording
        (collector housekeeping).
        """

        def wrapper(*args, **kwargs):
            name = label(*args, **kwargs) if self.enabled else None
            if name is None:
                return inner(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.round])
            self._open.append(index)
            try:
                return inner(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()

        return wrapper

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "round")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)


def instrument(recorder: SpanRecorder, subject) -> None:
    """Wrap every layer boundary of ``subject`` reachable from the public API."""
    if hasattr(subject, "run"):
        run = subject.run
        recorder.wrap(run, "run", lambda *a, **k: "round")
        recorder.wrap(run, "sample_ids", lambda *a, **k: "query")
        _instrument_comm(recorder, run.comm)
        sampler = run.sampler
        make_engine = sampler.engine

        def engine():
            made = make_engine()
            recorder.wrap(made, "threshold_update", lambda *a, **k: "threshold_update")
            return made

        recorder.patch(sampler, "engine", engine)
    else:
        sampler = subject.sampler
        recorder.wrap(sampler, "feed_batch", lambda *a, **k: "round")
        recorder.wrap(sampler, "sample_ids", lambda *a, **k: "query")
    if subject.stream is not None:
        recorder.wrap(subject.stream, "next_round", lambda *a, **k: "next_round")


def _instrument_comm(recorder: SpanRecorder, comm) -> None:
    def per_pe_label(kind):
        def label(handle, fn, *args, **kwargs):
            return None if is_obs_kernel(fn) else f"{kind}:{kernel_name(fn)}"

        return label

    recorder.wrap(comm, "run_per_pe", per_pe_label("run_per_pe"))
    dispatch_async = recorder.recording(comm.run_per_pe_async, per_pe_label("run_per_pe_async"))

    def run_per_pe_async(*args, **kwargs):
        future = dispatch_async(*args, **kwargs)
        recorder.wrap(future, "wait", lambda *a, **k: "join")
        return future

    recorder.patch(comm, "run_per_pe_async", run_per_pe_async)
    for name in COLLECTIVES:
        recorder.wrap(comm, name, lambda *a, _name=name, **k: f"collective:{_name}")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
def _roots(spans: List[list]) -> List[int]:
    roots = []
    for index, span in enumerate(spans):
        parent = span[3]
        roots.append(index if parent < 0 else roots[parent])
    return roots


def layer_metrics(spans: List[list], rounds: int) -> Tuple[Dict[str, float], List[float]]:
    """Per-round means of the span layers, and each round's duration in ms.

    Only spans under a ``round`` span count as round work; ``next_round``
    counts wherever it ran (the sequential subject draws its batch
    before the round starts).
    """
    roots = _roots(spans)
    child_time = [0.0] * len(spans)
    totals = dict.fromkeys(TIMED_LAYERS, 0.0)
    calls = {"run_per_pe": 0, "collective": 0}
    round_ms: List[float] = []
    for index, (name, start, end, parent, _round) in enumerate(spans):
        duration = end - start
        if parent >= 0:
            child_time[parent] += duration
        if name == "next_round":
            totals["stream.next_round"] += duration
        if spans[roots[index]][0] != "round":
            continue
        if name == "round":
            round_ms.append(duration * 1e3)
            continue
        kind, _, kernel = name.partition(":")
        if kind in calls:
            calls[kind] += 1
            totals[f"network.{kind}"] += duration
        layer = {
            "run_per_pe_async": "pipeline.prefetch",
            "join": "pipeline.join",
            "threshold_update": "selection.threshold_update",
        }.get(kind) or KERNEL_LAYERS.get(kernel)
        if layer is not None:
            totals[layer] += duration
    driver_self = sum(
        (span[2] - span[1]) - child_time[index]
        for index, span in enumerate(spans)
        if span[0] == "round"
    )
    metrics = {f"{layer}_ms": seconds * 1e3 / rounds for layer, seconds in totals.items()}
    metrics["network.run_per_pe_calls"] = calls["run_per_pe"] / rounds
    metrics["network.collective_calls"] = calls["collective"] / rounds
    metrics["runtime.driver_self_ms"] = driver_self * 1e3 / rounds
    return metrics, round_ms


def dispatch_wait_ms(spans: List[list], worker_events, rounds: int) -> float:
    """Per-round coordinator call time not covered by the workers' commands.

    For every ``run_per_pe`` and collective call inside a round, the
    workers' matching ``cmd.*`` spans are those whose midpoint lies in the
    call's interval (the collector has already put them on the
    coordinator clock).  The call's wait is its duration minus the
    longest matching worker span.
    """
    by_kind: Dict[str, List[tuple]] = {"cmd.run": [], "cmd.coll": []}
    for track, _ph, name, _cat, ts, dur, _args in worker_events:
        if name in by_kind and track != "coordinator":
            by_kind[name].append((ts + dur / 2.0, dur))
    for events in by_kind.values():
        events.sort()
    roots = _roots(spans)
    wait = 0.0
    for index, (name, start, end, _parent, _round) in enumerate(spans):
        kind = name.partition(":")[0]
        if kind not in WORKER_COMMAND or spans[roots[index]][0] != "round":
            continue
        events = by_kind[WORKER_COMMAND[kind]]
        lo = bisect.bisect_left(events, (start,))
        longest = 0.0
        while lo < len(events) and events[lo][0] <= end:
            longest = max(longest, events[lo][1])
            lo += 1
        wait += max((end - start) - longest, 0.0)
    return wait * 1e3 / rounds

