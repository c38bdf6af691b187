"""End-to-end trace collection: identity, alignment, and the p=4 trace.

The two load-bearing guarantees of the obs layer:

* **non-interference** — ``sample_ids()`` is byte-identical with tracing
  enabled and disabled, on both execution backends (tracers never touch
  a random generator);
* **alignment** — after the per-worker clock-offset calibration, worker
  spans land inside the coordinator round that collected them, spans
  within one track nest cleanly, and the exported Chrome trace of a
  ``p=4`` pipelined run validates with one track per PE (the PR's
  acceptance criterion).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.api import DistributedSamplingRun
from repro.obs import TraceCollector, validate_chrome_trace
from repro.runtime.metrics import PHASES
from repro.stream import MiniBatchStream

RUN_KWARGS = dict(k=30, p=2, batch_size=200, seed=9)
ROUNDS = 4
#: the run modes: coordinator-fed stream, worker stream shards, pipelined
MODES = ("coordinator", "worker", "pipelined")


def mode_kwargs(mode):
    if mode == "coordinator":
        return {"stream": MiniBatchStream(2, 200, seed=9)}
    if mode == "pipelined":
        return {"pipeline": "relaxed", "warmup_rounds": 1}
    return {}


def run_sample_ids(mode, trace, **overrides):
    kwargs = {**RUN_KWARGS, **mode_kwargs(mode), **overrides}
    with DistributedSamplingRun("ours", trace=trace, **kwargs) as run:
        run.run(ROUNDS)
        return np.sort(run.sample_ids())


class TestNullTracerByteIdentity:
    @pytest.mark.parametrize("comm", ["sim", "process"])
    @pytest.mark.parametrize("mode", MODES)
    def test_sample_ids_identical_with_tracing_on_off(self, mode, comm):
        baseline = run_sample_ids(mode, None, comm=comm)
        traced = run_sample_ids(mode, True, comm=comm)
        off = run_sample_ids(mode, False, comm=comm)
        assert np.array_equal(baseline, traced)
        assert np.array_equal(baseline, off)

    def test_invalid_trace_argument_rejected(self):
        with pytest.raises(TypeError, match="trace"):
            DistributedSamplingRun("ours", trace="yes", **RUN_KWARGS)


class TestCollectedEvents:
    @pytest.fixture(params=["sim", "process"])
    def collector(self, request):
        collector = TraceCollector()
        with DistributedSamplingRun(
            "ours", comm=request.param, trace=collector, **RUN_KWARGS
        ) as run:
            run.run(ROUNDS)
        return collector

    def test_every_round_collected_exactly_once(self, collector):
        rounds = [
            event[6]["round"]
            for event in collector.events()
            if event[0] == "coordinator" and event[1] == "X" and event[2] == "round"
        ]
        assert sorted(rounds) == list(range(ROUNDS))

    def test_events_sorted_and_timestamps_finite(self, collector):
        events = collector.events()
        assert events
        stamps = [event[4] for event in events]
        assert stamps == sorted(stamps)
        assert all(ts == ts and abs(ts) != float("inf") for ts in stamps)

    def test_pe_spans_tagged_with_rank_round_epoch_and_tier(self, collector):
        kernel_spans = [
            event
            for event in collector.events()
            if event[0].startswith("pe") and event[1] == "X" and event[3] == "kernel"
        ]
        assert kernel_spans
        for track, _ph, _name, _cat, _ts, _dur, args in kernel_spans:
            assert args["rank"] == int(track[2:])
            assert "kernel_tier" in args
            assert args["epoch"] == 0
            assert 0 <= args["round"] < ROUNDS

    def test_spans_nest_within_each_track(self, collector):
        # within one track any two spans either nest or are disjoint —
        # partial overlap would mean timestamps are inconsistent
        by_track = {}
        for track, ph, _n, _c, ts, dur, _a in collector.events():
            if ph == "X":
                by_track.setdefault(track, []).append((ts, ts + dur))
        eps = 1e-9
        for track, intervals in by_track.items():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - eps or e2 <= e1 + eps, (
                    f"partially overlapping spans on {track}"
                )

    def test_worker_spans_align_into_their_round(self, collector):
        # clock alignment: a PE's insert span of round r must fall inside
        # the coordinator's round-r span (generous slack for calibration
        # error; raw perf_counter origins differ by *seconds*)
        slack = 0.02
        round_bounds = {
            event[6]["round"]: (event[4], event[4] + event[5])
            for event in collector.events()
            if event[0] == "coordinator" and event[1] == "X" and event[2] == "round"
        }
        checked = 0
        for track, ph, name, cat, ts, dur, args in collector.events():
            if not track.startswith("pe") or ph != "X" or cat != "kernel":
                continue
            start, end = round_bounds[args["round"]]
            assert ts >= start - slack and ts + dur <= end + slack
            checked += 1
        assert checked > 0


class TestPipelinedTraceAcceptance:
    def test_p4_pipelined_trace_validates_with_one_track_per_pe(self, tmp_path):
        collector = TraceCollector()
        with DistributedSamplingRun(
            "ours",
            k=50,
            p=4,
            batch_size=400,
            warmup_rounds=1,
            seed=3,
            comm="process",
            pipeline="relaxed",
            trace=collector,
        ) as run:
            run.run(ROUNDS)
        path = collector.export(tmp_path / "trace.json")

        trace = json.loads(path.read_text())
        events = validate_chrome_trace(trace)
        tracks = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert tracks == {"coordinator", "pe0", "pe1", "pe2", "pe3"}
        assert len(trace["metadata"]["clock_offsets"]) == 4
        # every PE produced aligned spans, and the pipelined phases appear
        pids_with_spans = {e["pid"] for e in events if e["ph"] == "X"}
        assert len(pids_with_spans) == 5
        phase_names = {
            e["name"] for e in events if e.get("cat") == "phase" and e["name"] in PHASES
        }
        assert {"prepare", "insert", "select", "threshold", "overlap"} <= phase_names

    def test_registry_fed_from_round_metrics(self):
        collector = TraceCollector()
        with DistributedSamplingRun("ours", trace=collector, **RUN_KWARGS) as run:
            run.run(ROUNDS)
            total_items = run.metrics.total_items
        snapshot = collector.registry.as_dict()
        assert snapshot["repro_rounds_total"]["value"] == ROUNDS
        assert snapshot["repro_items_total"]["value"] == total_items
        exposition = collector.registry.exposition()
        assert "repro_payload_bytes_total" in exposition
