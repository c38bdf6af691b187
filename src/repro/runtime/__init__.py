"""Simulation runtime: machine model, clock and per-phase metrics.

The paper evaluates its algorithms on a real supercomputer; this
reproduction executes the same algorithms inside one process and derives
*simulated* running times from

* a :class:`~repro.runtime.machine.MachineSpec` describing per-operation
  local-work costs (including an explicit cache-capacity effect) and the
  ``alpha``/``beta`` communication constants, and
* the per-phase operation counts produced by the samplers plus the
  communication ledger filled in by the simulated communicator.

:class:`~repro.core.api.DistributedSamplingRun` drives a sampler over a
mini-batch stream and aggregates
:class:`~repro.runtime.metrics.RoundMetrics` into a
:class:`~repro.runtime.metrics.RunMetrics` record, from which the scaling
benchmarks read speedups, throughput and the running-time composition —
simulated time on the cost simulator, measured wall time on every backend.
"""

from repro.runtime.clock import PhaseClock
from repro.runtime.machine import MachineSpec
from repro.runtime.metrics import PhaseTimes, RoundMetrics, RunMetrics

__all__ = [
    "MachineSpec",
    "PhaseClock",
    "PhaseTimes",
    "RoundMetrics",
    "RunMetrics",
]
