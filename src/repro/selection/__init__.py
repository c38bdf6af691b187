"""Distributed selection algorithms and the order-statistics engine.

The distributed reservoir sampler re-establishes its global insertion
threshold once per mini-batch by selecting the key with global rank ``k``
over the union of the local reservoirs.  Since the engine refactor the
package has two layers:

**The engine** — :class:`OrderStatisticsEngine` wraps a
:class:`DistributedKeySet` (``p`` locally sorted key multisets) and a
communicator behind four verbs: ``rank_select`` (global order
statistics), ``count_le`` / ``count_le_many`` (global ranks of probe
keys), ``threshold_update`` (the samplers' full count → select/tighten →
agree round sequence) and ``global_merge`` (sorted union, small inputs).
The sibling summaries of :mod:`repro.summaries` are built on the same
verbs.

**The policies** — every selection strategy the paper discusses plugs
into the engine (and remains directly usable):

==============================  ============================================
Class                           Paper reference
==============================  ============================================
:class:`SinglePivotSelection`   general case, single Bernoulli pivot (§3.3.3)
:class:`MultiPivotSelection`    general case with ``d`` pivots (§3.3.2+§3.3.3)
:class:`AmsSelection`           approximate / banded selection (§3.3.2, §4.4)
:class:`SampledSelection`       randomly distributed items, two pivots (§3.3.1)
:class:`UnsortedSelection`      unsorted fallback (§3.3.4)
:func:`quickselect_nth`         sequential quickselect for the root of the
                                centralized baseline (§4.5)
==============================  ============================================

All algorithms speak to the data only through :class:`DistributedKeySet`
and communicate only through the communicator, so their communication
cost is fully accounted.
"""

from repro.selection.ams_select import AmsSelection
from repro.selection.base import (
    DistributedKeySet,
    SelectionAlgorithm,
    SelectionError,
    SelectionResult,
    SelectionStats,
)
from repro.selection.bernoulli_pivot import SinglePivotSelection
from repro.selection.engine import OrderStatisticsEngine, ThresholdUpdate
from repro.selection.keysets import ArrayKeySet
from repro.selection.multi_pivot import MultiPivotSelection
from repro.selection.pivot_select import PivotSelection
from repro.selection.quickselect import nth_smallest_numpy, quickselect_nth, smallest_k
from repro.selection.sampled_select import SampledSelection
from repro.selection.unsorted_select import UnsortedSelection

__all__ = [
    "DistributedKeySet",
    "SelectionAlgorithm",
    "SelectionError",
    "SelectionResult",
    "SelectionStats",
    "OrderStatisticsEngine",
    "ThresholdUpdate",
    "ArrayKeySet",
    "PivotSelection",
    "SinglePivotSelection",
    "MultiPivotSelection",
    "AmsSelection",
    "SampledSelection",
    "UnsortedSelection",
    "quickselect_nth",
    "nth_smallest_numpy",
    "smallest_k",
]
