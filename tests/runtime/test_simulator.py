"""Tests for the run driver over a coordinator-fed stream on the simulator."""

import pytest

from repro.core import DistributedReservoirSampler, DistributedSamplingRun
from repro.network import SimComm
from repro.stream import MiniBatchStream


def make_simulation(p=4, k=10, batch=20, warmup=0, seed=1):
    sampler = DistributedReservoirSampler(k, SimComm(p), seed=seed)
    stream = MiniBatchStream(p, batch, seed=seed + 1)
    return DistributedSamplingRun(sampler, stream=stream, warmup_rounds=warmup)


class TestRunRounds:
    def test_collects_one_metric_per_round(self):
        sim = make_simulation()
        metrics = sim.run(5)
        assert metrics.num_rounds == 5
        assert metrics.total_items == 5 * 4 * 20
        assert metrics.simulated_time > 0

    def test_zero_rounds(self):
        sim = make_simulation()
        assert sim.run(0).num_rounds == 0

    def test_warmup_rounds_not_reported(self):
        sim = make_simulation(warmup=3)
        metrics = sim.run(2)
        assert metrics.num_rounds == 2
        # warm-up consumed stream rounds as well
        assert sim.stream.round_index == 5
        assert sim.sampler.items_seen == 5 * 4 * 20

    def test_step_returns_round_metrics(self):
        sim = make_simulation()
        round_metrics = sim.run(1).rounds[-1]
        assert round_metrics.round_index == 0
        assert sim.metrics.num_rounds == 1

    def test_mismatched_stream_and_sampler(self):
        sampler = DistributedReservoirSampler(5, SimComm(2), seed=0)
        with pytest.raises(ValueError):
            DistributedSamplingRun(sampler, stream=MiniBatchStream(3, 10, seed=0))

    def test_metrics_algorithm_name(self):
        sim = make_simulation()
        assert sim.metrics.algorithm == "ours"
        assert sim.metrics.p == 4

    def test_sample_ids_passthrough(self):
        sim = make_simulation(k=7)
        sim.run(3)
        assert len(sim.sample_ids()) == 7

    def test_communication_summary(self):
        sim = make_simulation()
        sim.run(2)
        assert sim.communication_summary()["messages"] > 0


class TestRunForSimulatedTime:
    """On the simulator, ``run_for`` runs on the simulated clock."""

    def test_stops_after_duration(self):
        sim = make_simulation()
        first = sim.run(1).rounds[-1]
        per_round = first.simulated_time
        metrics = sim.run_for(per_round * 5, max_rounds=100)
        assert metrics.simulated_time >= per_round * 5
        assert metrics.num_rounds < 100

    def test_respects_max_rounds(self):
        sim = make_simulation()
        metrics = sim.run_for(1e9, max_rounds=3)
        assert metrics.num_rounds == 3

    def test_respects_min_rounds(self):
        sim = make_simulation()
        metrics = sim.run_for(1e-30, min_rounds=2, max_rounds=10)
        assert metrics.num_rounds >= 2

    def test_invalid_duration(self):
        sim = make_simulation()
        with pytest.raises(ValueError):
            sim.run_for(0.0)


class TestWarmupEdgeCases:
    def test_negative_warmup_rejected(self):
        sampler = DistributedReservoirSampler(5, SimComm(2), seed=0)
        with pytest.raises(ValueError):
            DistributedSamplingRun(
                sampler, stream=MiniBatchStream(2, 10, seed=0), warmup_rounds=-1
            )

    def test_warmup_runs_exactly_once(self):
        sim = make_simulation(warmup=2)
        sim.run(1)
        sim.run(1)
        # 2 warm-up + 2 measured; a third step must not re-warm
        sim.run(1)
        assert sim.stream.round_index == 5
        assert sim.metrics.num_rounds == 3

    def test_warmup_without_steps_consumes_nothing(self):
        sim = make_simulation(warmup=3)
        # warm-up is lazy: no stream rounds consumed until the first step
        assert sim.stream.round_index == 0
        assert sim.run(0).num_rounds == 0
        assert sim.stream.round_index == 0

    def test_warmup_only_run_then_measure_matches_fresh_state(self):
        # metrics of the first measured round reflect the warmed-up sampler
        sim = make_simulation(warmup=1, k=10, batch=50)
        first = sim.run(1).rounds[-1]
        assert first.items_seen_total == 2 * 4 * 50  # warm-up items included
        assert first.round_index == 1  # sampler-side round counter kept running

    def test_zero_warmup_equals_default(self):
        explicit = make_simulation(warmup=0)
        default = make_simulation()
        assert explicit.run(2).total_items == default.run(2).total_items


class TestRoundLimitEdgeCases:
    def test_max_rounds_zero_rejected(self):
        sim = make_simulation()
        with pytest.raises(ValueError):
            sim.run_for(1.0, max_rounds=0)

    def test_min_rounds_zero_still_runs_until_duration(self):
        sim = make_simulation()
        per_round = sim.run(1).rounds[-1].simulated_time
        metrics = sim.run_for(per_round * 2, min_rounds=0, max_rounds=50)
        assert metrics.simulated_time >= per_round * 2

    def test_min_rounds_wins_over_tiny_duration(self):
        sim = make_simulation()
        metrics = sim.run_for(1e-30, min_rounds=5, max_rounds=10)
        assert metrics.num_rounds == 5

    def test_max_rounds_wins_over_min_rounds(self):
        sim = make_simulation()
        metrics = sim.run_for(1e-30, min_rounds=8, max_rounds=3)
        assert metrics.num_rounds == 3

    def test_duration_reached_mid_run_keeps_metrics_consistent(self):
        sim = make_simulation()
        per_round = sim.run(1).rounds[-1].simulated_time
        metrics = sim.run_for(per_round * 3.5, max_rounds=100)
        assert metrics.num_rounds == len(metrics.rounds)
        assert metrics.total_items == sum(r.batch_items for r in metrics.rounds)
