"""Sampler and pipeline-engine state capture for checkpoints.

The samplers are pure functions of (per-PE keyset state, per-PE rng
state, driver counters, threshold), so a checkpoint is exactly those
pieces:

* **per-PE state** — exported *inside* the execution backend by
  :func:`repro.core.pe_kernels.export_pe_state_kernel` (reservoir or
  window-buffer contents, both generators' bit-generator states, the
  stream shard's replay position, any parked prepared batch) and
  re-imported by :func:`~repro.core.pe_kernels.import_pe_state_kernel`;
* **driver state** — the coordinator-side mutable counters of each
  sampler family (threshold, items seen, total weight, round index, the
  variable-size selection counters, the window stamp/eviction counters)
  plus, for the centralized baseline, the root reservoir contents;
* **engine state** — for pipelined runs, the engine's round counter and
  the *joined results* of an in-flight prepare: the checkpoint drains
  the pending future and re-arms it as an already-completed future, so
  a resumed run and the continued original run execute identically.

Everything here round-trips byte-identically: restoring a snapshot and
continuing produces the same ``sample_ids()`` as never having stopped
(enforced by the hypothesis property in ``tests/checkpoint/``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.checkpoint.format import CheckpointError
from repro.core import pe_kernels

__all__ = [
    "snapshot_sampler",
    "restore_sampler",
    "snapshot_summary",
    "restore_summary",
    "snapshot_engine",
    "restore_engine",
]

#: coordinator-side mutable attributes, superset across sampler families;
#: only the attributes a sampler actually has are captured/restored
_DRIVER_FIELDS = (
    "threshold",
    "_items_seen",
    "_total_weight",
    "_round",
    "_has_worker_stream",
    "_threshold_settled",
    # variable-size sampler
    "selections_run",
    "rounds_without_selection",
    # distributed sliding window
    "_next_stamp",
    "_max_stamp",
    "_evicted_total",
    "_selection_skips",
)

_MISSING = object()


def snapshot_sampler(sampler) -> Dict[str, object]:
    """Capture a distributed sampler's complete mutable state."""
    driver = {}
    for name in _DRIVER_FIELDS:
        value = getattr(sampler, name, _MISSING)
        if value is not _MISSING:
            driver[name] = value
    snapshot: Dict[str, object] = {
        "sampler_type": type(sampler).__name__,
        "p": sampler.p,
        "k": sampler.k,
        "driver": driver,
        "per_pe": sampler.comm.run_per_pe(sampler._handle, pe_kernels.export_pe_state_kernel),
    }
    root_reservoir = getattr(sampler, "_reservoir", None)
    if root_reservoir is not None:  # centralized baseline: reservoir lives at the root
        snapshot["root_reservoir"] = {
            "keys": root_reservoir.keys_array(),
            "ids": root_reservoir.ids_array(),
        }
    return snapshot


def restore_sampler(sampler, snapshot: Dict[str, object]) -> None:
    """Restore a freshly constructed sampler to a snapshot's state.

    The sampler must have been built with the same constructor arguments
    (algorithm family, ``k``, ``p``, store, kernel tier, seed) as the one
    the snapshot was taken from; the type and shape checks below catch
    the common mismatches with actionable errors.
    """
    if snapshot.get("sampler_type") != type(sampler).__name__:
        raise CheckpointError(
            f"checkpoint holds a {snapshot.get('sampler_type')} state but the run built a "
            f"{type(sampler).__name__} — algorithm/window/weighted settings must match the "
            "checkpointed run"
        )
    per_pe: List[dict] = snapshot["per_pe"]
    if len(per_pe) != sampler.p:
        raise CheckpointError(
            f"checkpoint holds state for p={len(per_pe)} PEs but the run has p={sampler.p}; "
            "pass p explicitly to resume() to re-shard elastically"
        )
    sampler.comm.run_per_pe(
        sampler._handle,
        pe_kernels.import_pe_state_kernel,
        [(pe_snapshot,) for pe_snapshot in per_pe],
    )
    driver = snapshot["driver"]
    for name, value in driver.items():
        setattr(sampler, name, value)
    if hasattr(sampler, "_threshold_settled") and "_threshold_settled" not in driver:
        # a snapshot without the flag: tighten once more before skipping
        sampler._threshold_settled = False
    root = snapshot.get("root_reservoir")
    if root is not None:
        from repro.core.store import make_store

        store = make_store(sampler.store, kernel_tier=sampler.kernel_tier)
        keys = np.asarray(root["keys"], dtype=np.float64)
        ids = np.asarray(root["ids"], dtype=np.int64)
        if keys.shape[0]:
            store.insert_batch(keys, ids)
        sampler._reservoir = store


# ---------------------------------------------------------------------------
# summaries (repro.summaries)
# ---------------------------------------------------------------------------
#: summaries whose complete mutable state fits the sampler checkpoint
#: format: reservoir-shaped per-PE keysets + generators + driver counters
_SNAPSHOTTABLE_SUMMARIES = ("DistributedTopK", "RecencyReservoir")

#: summary types that carry state outside the per-PE keyset export, with
#: the reason restore would be silently wrong for each
_UNSUPPORTED_SUMMARIES = {
    "HeavyHitters": "its Misra-Gries counter tables and error bounds live outside the keyset",
    "StreamingQuantiles": "its quantile cursors and reselection counters live outside the keyset",
}

def _check_summary_type(name: str, verb: str) -> None:
    if name in _SNAPSHOTTABLE_SUMMARIES:
        return
    reason = _UNSUPPORTED_SUMMARIES.get(name, "it is not a known snapshot-capable summary")
    raise CheckpointError(
        f"cannot {verb} a {name}: {reason}. Checkpointable summaries: "
        f"{', '.join(_SNAPSHOTTABLE_SUMMARIES)} — for a {name}, re-ingest the stream "
        "(or persist its query results) instead"
    )


def snapshot_summary(summary) -> Dict[str, object]:
    """Capture a summary's complete mutable state (top-k / recency only).

    Uses the sampler capture path — the snapshot-capable summaries keep
    their entire per-PE state in the same reservoir-shaped slots the
    samplers use — tagged with ``summary_type`` instead of
    ``sampler_type`` so sampler and summary checkpoints cannot be mixed
    up.  Raises :class:`CheckpointError` with the reason for the summary
    families whose state the format cannot represent.
    """
    _check_summary_type(type(summary).__name__, "snapshot")
    snapshot = snapshot_sampler(summary)
    snapshot["summary_type"] = snapshot.pop("sampler_type")
    return snapshot


def restore_summary(summary, snapshot: Dict[str, object]) -> None:
    """Restore a freshly constructed summary from a :func:`snapshot_summary`.

    The summary must have been built with the same constructor arguments
    (``k``, ``p``, recency multiplier, seed, kernel tier) as the one the
    snapshot was taken from.
    """
    _check_summary_type(type(summary).__name__, "restore")
    if "summary_type" not in snapshot:
        kind = snapshot.get("sampler_type", "<unknown>")
        raise CheckpointError(
            f"checkpoint holds a sampler state ({kind}), not a summary — restore it with "
            "restore_sampler onto the matching sampler type"
        )
    relabeled = dict(snapshot)
    relabeled["sampler_type"] = relabeled.pop("summary_type")
    restore_sampler(summary, relabeled)


# ---------------------------------------------------------------------------
# pipeline engines
# ---------------------------------------------------------------------------
def snapshot_engine(engine) -> Optional[Dict[str, object]]:
    """Capture a pipeline engine's state, draining any in-flight prepare.

    Delegates to the engine's own
    :meth:`~repro.pipeline.engine._PipelineEngineBase.export_state`,
    which joins a pending prepare and re-arms it on the live engine as an
    already-completed future.  Call this BEFORE :func:`snapshot_sampler`
    so the per-PE export sees the parked prepared batch.
    """
    if engine is None:
        return None
    return engine.export_state()


def restore_engine(engine, snapshot: Optional[Dict[str, object]]) -> None:
    """Re-arm a freshly built engine from a :func:`snapshot_engine` capture."""
    if engine is None and snapshot is None:
        return
    if engine is None or snapshot is None:
        raise CheckpointError(
            "checkpoint and run disagree about pipelining — resume with the same "
            "pipeline= mode the checkpointed run used"
        )
    try:
        engine.import_state(snapshot)
    except ValueError as exc:
        raise CheckpointError(
            f"{exc}; resume with the same pipeline= mode the checkpointed run used"
        ) from exc
