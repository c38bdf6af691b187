"""Communication-efficient (weighted) reservoir sampling — reproduction library.

This package reproduces the algorithms and experiments of

    Lorenz Hübschle-Schneider and Peter Sanders,
    "Communication-Efficient (Weighted) Reservoir Sampling
     from Fully Distributed Data Streams", SPAA 2020 (arXiv:1910.11069).

Quick start (sequential)::

    from repro import ReservoirSampler
    sampler = ReservoirSampler(k=100, weighted=True, seed=1)
    sampler.feed(ids=range(10_000), weights=weights)
    print(sampler.sample_ids())

Quick start (distributed, simulated)::

    from repro import DistributedSamplingRun
    run = DistributedSamplingRun("ours-8", k=1_000, p=64, batch_size=10_000)
    metrics = run.run(rounds=20)
    print(metrics.throughput_per_pe(), run.sample_ids()[:10])

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md`` for
the mapping between the paper's figures and the benchmark harness.
"""

from repro.checkpoint import CheckpointError, CheckpointManager
from repro.core import (
    CentralizedGatherSampler,
    DistributedBulkPriorityQueue,
    DistributedReservoirSampler,
    DistributedSamplingRun,
    DistributedUniformReservoirSampler,
    DistributedWeightedReservoirSampler,
    LocalReservoir,
    ReservoirSampler,
    SequentialUniformReservoir,
    SequentialWeightedReservoir,
    VariableSizeReservoirSampler,
    make_distributed_sampler,
)
from repro.network import CostLedger, CostParameters, SimComm
from repro.obs import (
    HealthConfig,
    HealthMonitor,
    HealthServer,
    MetricsRegistry,
    NullTracer,
    StallError,
    TraceCollector,
    Tracer,
    get_logger,
)
from repro.pipeline import BatchSizeAutotuner
from repro.runtime import MachineSpec, RunMetrics
from repro.selection import (
    AmsSelection,
    MultiPivotSelection,
    SampledSelection,
    SinglePivotSelection,
    UnsortedSelection,
)
from repro.stream import (
    ItemBatch,
    MiniBatchStream,
    TimestampedItemBatch,
    TimestampedMiniBatchStream,
    UniformWeightGenerator,
)
from repro.window import DecayedReservoir, DistributedWindowSampler, SlidingWindowReservoir

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core samplers
    "ReservoirSampler",
    "SequentialWeightedReservoir",
    "SequentialUniformReservoir",
    "DistributedReservoirSampler",
    "DistributedWeightedReservoirSampler",
    "DistributedUniformReservoirSampler",
    "VariableSizeReservoirSampler",
    "CentralizedGatherSampler",
    "DistributedBulkPriorityQueue",
    "LocalReservoir",
    "make_distributed_sampler",
    "DistributedSamplingRun",
    # windowed / decayed samplers
    "SlidingWindowReservoir",
    "DecayedReservoir",
    "DistributedWindowSampler",
    # asynchronous double-buffered ingestion
    "BatchSizeAutotuner",
    # selection
    "SinglePivotSelection",
    "MultiPivotSelection",
    "AmsSelection",
    "SampledSelection",
    "UnsortedSelection",
    # fault tolerance
    "CheckpointError",
    "CheckpointManager",
    # observability
    "Tracer",
    "NullTracer",
    "TraceCollector",
    "MetricsRegistry",
    "get_logger",
    "HealthConfig",
    "HealthMonitor",
    "HealthServer",
    "StallError",
    # substrate
    "SimComm",
    "CostParameters",
    "CostLedger",
    "MachineSpec",
    "RunMetrics",
    # stream
    "ItemBatch",
    "TimestampedItemBatch",
    "MiniBatchStream",
    "TimestampedMiniBatchStream",
    "UniformWeightGenerator",
]
