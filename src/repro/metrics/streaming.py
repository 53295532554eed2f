"""Streaming (constant-memory) percentile estimation for long runs.

The :class:`~repro.metrics.collector.MetricsCollector` keeps every
:class:`~repro.sim.request.Request` so experiments can slice the
distribution arbitrarily.  Where that is too much — the sharded trace
replay's per-minute invocation counts run to millions of values per
shard — a bounded quantile sketch summarises the stream instead.

The sketch is :class:`ReservoirQuantiles` — a deterministic
fixed-size reservoir (Vitter's algorithm R with a seeded stdlib RNG):
constant memory, exact handling of atoms and arbitrary query quantiles,
accuracy limited only by sampling error (±~0.3 % of rank at 4096
samples).  Atoms matter here: simulated waiting times are typically
>50 % exact zeros (requests that started on an idle container), which
is why marker-based sketches such as P² — whose local updates cannot
cross a heavy atom — are not used.  The reservoir state and its
batched fold live in :class:`SortedReservoir`, which the controller's
service-time estimator
(:class:`~repro.core.estimation.service_time.StreamingQuantile`)
shares.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Any, Dict, Iterable, List, Mapping, Sequence

import numpy as np


class SortedReservoir:
    """Algorithm R over a sorted sample: the state and the batched fold.

    Every observation is retained while the reservoir is filling;
    afterwards observation ``n`` replaces a random resident with
    probability ``k/n``, decided by one draw of a seeded stdlib RNG.  The
    sample stays sorted so quantile queries are a single interpolation.
    :class:`ReservoirQuantiles` and
    :class:`repro.core.estimation.service_time.StreamingQuantile` share
    this state and :meth:`add_many`; each keeps its own per-observation
    ``add``.
    """

    __slots__ = ("max_samples", "_sorted", "_count", "_rng")

    def __init__(self, max_samples: int, seed: int) -> None:
        """Configure the reservoir size and its deterministic RNG seed."""
        if max_samples < 10:
            raise ValueError("max_samples must be at least 10")
        self.max_samples = int(max_samples)
        self._sorted: List[float] = []
        self._count = 0
        # stdlib RNG: an order of magnitude cheaper per draw than a numpy
        # Generator for scalar uniforms, and this sits on the completion path
        self._rng = random.Random(seed)

    @property
    def count(self) -> int:
        """Total observations seen (not the reservoir size)."""
        return self._count

    def add_many(self, values: Iterable[float]) -> None:
        """Fold a batch of observations, state-for-state identical to ``add``.

        The same reservoir decisions and the same RNG draws as one
        ``add`` per element, in order — just with the per-call overhead
        hoisted out of the loop, so any split of a stream into batches
        ends in the same sample, count and RNG state.  A NaN or negative
        observation raises :class:`ValueError`; the ones before it stay
        folded.
        """
        sorted_values = self._sorted
        max_samples = self.max_samples
        count = self._count
        rng_random = self._rng.random
        insort = bisect.insort
        try:
            for value in values:
                value = float(value)
                if not value >= 0.0:  # negative or NaN
                    raise ValueError("observations must be non-negative numbers")
                count += 1
                # the sample holds min(count, max_samples) values, so the
                # count alone says whether it is still filling
                if count <= max_samples:
                    insort(sorted_values, value)
                elif rng_random() * count < max_samples:
                    sorted_values.pop(int(rng_random() * max_samples))
                    insort(sorted_values, value)
        finally:
            self._count = count


class ReservoirQuantiles(SortedReservoir):
    """Deterministic bounded-size uniform sample with quantile queries.

    A :class:`SortedReservoir` (Algorithm R with a seeded stdlib RNG).
    Atoms (e.g. the zero-wait spike of idle-container hits) are
    represented with their true mass.
    """

    __slots__ = ()

    def __init__(self, max_samples: int = 4096, seed: int = 2029) -> None:
        """Configure the reservoir size and its deterministic RNG seed."""
        super().__init__(max_samples, seed)

    def add(self, value: float) -> None:
        """Feed one observation."""
        self._count += 1
        if len(self._sorted) < self.max_samples:
            bisect.insort(self._sorted, value)
        elif self._rng.random() * self._count < self.max_samples:
            self._sorted.pop(int(self._rng.random() * len(self._sorted)))
            bisect.insort(self._sorted, value)

    def quantile(self, p: float) -> float:
        """The ``p``-th quantile of the observations seen so far."""
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        if not self._sorted:
            return 0.0
        return float(np.quantile(self._sorted, p))

    def state(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the reservoir for cross-shard merging.

        The snapshot carries the total observation count, the configured
        bound, and the retained (sorted) samples — everything
        :func:`merge_reservoir_states` needs.  ``count == len(samples)``
        means the reservoir never overflowed, i.e. the samples are the
        *exact* multiset of observations.
        """
        return {
            "count": self._count,
            "max_samples": self.max_samples,
            "samples": [float(v) for v in self._sorted],
        }


def _check_reservoir_state(index: int, count: int, max_samples: int,
                           samples: Sequence[float]) -> None:
    """Reject a reservoir snapshot no :class:`ReservoirQuantiles` could produce."""
    problem = None
    if count < 0:
        problem = f"negative count {count}"
    elif count < len(samples):
        problem = f"count {count} is below its {len(samples)} samples"
    elif len(samples) > max_samples:
        problem = f"{len(samples)} samples exceed max_samples {max_samples}"
    elif count and not samples:
        problem = f"count {count} but no samples"
    elif not all(math.isfinite(v) for v in samples):
        problem = "a non-finite sample"
    if problem is not None:
        raise ValueError(f"reservoir state {index} is invalid: {problem}")


def merge_reservoir_states(
    states: Iterable[Mapping[str, Any]],
    quantiles: Iterable[float] = (0.5, 0.90, 0.95, 0.99),
) -> Dict[str, Any]:
    """Merge per-shard :meth:`ReservoirQuantiles.state` snapshots.

    Determinism contract (pinned by ``tests/test_trace_replay.py``):

    * **Order-insensitive.**  Each retained sample is weighted by the
      observations it represents (``count / len(samples)`` of its
      shard), all (value, weight) pairs are sorted by that total order,
      and each quantile is the smallest value whose cumulative weight
      reaches ``p`` of the total (the type-1 inverted CDF).  The result
      is a pure function of the *multiset* of shard states — permuting
      the shards cannot change a byte.
    * **Exact when nothing was dropped.**  If every shard retained all
      of its observations (``count == len(samples)``, reported as
      ``"exact": True``), every weight is 1.0 and the merged quantiles
      equal the quantiles of the pooled raw observations — so any shard
      decomposition of the same observation set merges to identical
      bytes.  Otherwise the merge is the standard weighted-sample
      estimate and only identical decompositions are byte-comparable.

    States arrive from sweep journals and envelopes, so each is checked
    first: a negative count, fewer observations than retained samples,
    more samples than ``max_samples``, no samples for a non-zero count,
    or a non-finite sample raises :class:`ValueError` naming the state
    (its position in ``states``) instead of merging into wrong quantiles.
    """
    pairs: List[tuple] = []
    total_count = 0
    exact = True
    for index, state in enumerate(states):
        count = int(state["count"])
        samples = state["samples"]
        _check_reservoir_state(index, count, int(state["max_samples"]), samples)
        total_count += count
        if count != len(samples):
            exact = False
        if samples:
            weight = count / len(samples)
            pairs.extend((float(v), weight) for v in samples)
    result: Dict[str, Any] = {"count": total_count, "exact": exact}
    pairs.sort()
    total_weight = sum(w for _, w in pairs)
    for p in quantiles:
        if not 0.0 < p < 1.0:
            raise ValueError("quantiles must be in (0, 1)")
        key = f"p{round(p * 100)}"
        if not pairs:
            result[key] = 0.0
            continue
        target = p * total_weight
        cumulative = 0.0
        value = pairs[-1][0]
        for v, w in pairs:
            cumulative += w
            if cumulative >= target:
                value = v
                break
        result[key] = float(value)
    return result


__all__ = [
    "ReservoirQuantiles",
    "SortedReservoir",
    "merge_reservoir_states",
]
