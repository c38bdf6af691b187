"""Asynchronous double-buffered ingestion (paper remarks on asynchrony).

The lock-step drivers serialise every round's insert phase with its
selection/threshold collectives.  This package overlaps them instead:
while the coordinator finishes round *t*'s selection, the PEs already
prepare round *t+1*'s mini-batch — in worker background threads on the
real multiprocess backend, as a modeled ``max(prepare, select)`` round
cost on the simulator.

* :class:`~repro.pipeline.engine.UnboundedPipelineEngine` /
  :class:`~repro.pipeline.engine.WindowPipelineEngine` — the round
  engines, driven by :class:`~repro.core.api.DistributedSamplingRun` via
  its ``pipeline=`` argument: ``"strict"`` (byte-identical to lock-step)
  or ``"relaxed"`` (stale-by-one-round threshold, superset of candidates,
  reconciliation prune).
* :class:`~repro.pipeline.autotune.BatchSizeAutotuner` — adaptive
  mini-batch sizing behind ``batch_size="auto"``.
"""

from repro.pipeline.autotune import BatchSizeAutotuner
from repro.pipeline.engine import (
    PIPELINE_MODES,
    UnboundedPipelineEngine,
    WindowPipelineEngine,
    make_pipeline_engine,
    normalize_pipeline_mode,
)

__all__ = [
    "BatchSizeAutotuner",
    "UnboundedPipelineEngine",
    "WindowPipelineEngine",
    "make_pipeline_engine",
    "normalize_pipeline_mode",
    "PIPELINE_MODES",
]
