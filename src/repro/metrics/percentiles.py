"""Waiting-time and response-time percentile summaries.

The paper's model-validation experiments (Figures 3 and 4) report the
95th percentile of the measured waiting time against the SLO deadline,
along with box-and-whisker ranges; :func:`summarize_waiting_times`
computes all of those numbers from a list of completed requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.sim.request import Request, RequestStatus


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (``p`` in (0, 1)) of a non-empty sequence.

    Accepts any ndarray, sequence, or iterable of numbers.  An ndarray
    input is used as-is (no copy unless a dtype conversion is needed);
    sequences are converted with a single ``asarray`` pass — the seed
    implementation materialised ``list(values)`` first, copying every
    ndarray or list input twice.
    """
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    if isinstance(values, np.ndarray):
        arr = values if values.dtype == float else values.astype(float)
    else:
        try:
            arr = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            # a lazy iterable (generator, map, ...): single-pass conversion
            arr = np.fromiter(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take a percentile of an empty sequence")
    return float(np.quantile(arr, p))


@dataclass(frozen=True)
class WaitingTimeSummary:
    """Distributional summary of waiting times (all values in seconds)."""

    count: int
    mean: float
    median: float
    p90: float
    p95: float
    p99: float
    maximum: float
    minimum: float

    def as_dict(self) -> dict:
        """Plain-dict view, convenient for tabular experiment output."""
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
            "min": self.minimum,
        }


def _empty_summary() -> WaitingTimeSummary:
    """An all-zero summary for functions with no completed requests."""
    return WaitingTimeSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def summarize_values(values: np.ndarray) -> WaitingTimeSummary:
    """Summarise a float array of waiting (or response) times.

    The one summary block every path shares: the per-request loops
    below and the columnar collector, which slices the kernel's
    per-function columns straight into an array.  ``values`` must be in
    request-list order, because the mean's float summation depends on
    it, and is consumed: the percentiles partially sort it in place, so
    no copy of a large array is made.
    """
    if values.size == 0:
        return _empty_summary()
    count = int(values.size)
    mean = float(values.mean())
    maximum = float(values.max())
    minimum = float(values.min())
    p50, p90, p95, p99 = np.quantile(
        values, (0.5, 0.90, 0.95, 0.99), overwrite_input=True
    ).tolist()
    return WaitingTimeSummary(count, mean, p50, p90, p95, p99, maximum, minimum)


def summarize_waiting_times(
    requests: Iterable[Request],
    function_name: Optional[str] = None,
    warmup: float = 0.0,
) -> WaitingTimeSummary:
    """Summarise the waiting times of completed requests.

    Parameters
    ----------
    requests:
        Any iterable of :class:`~repro.sim.request.Request`.
    function_name:
        Restrict to a single function (``None`` keeps all).
    warmup:
        Ignore requests that arrived before this simulation time, so
        cold-start transients do not pollute steady-state percentiles.
    """
    waits: List[float] = []
    for request in requests:
        if function_name is not None and request.function_name != function_name:
            continue
        if request.arrival_time < warmup:
            continue
        if request.status is not RequestStatus.COMPLETED:
            continue
        wait = request.waiting_time
        if wait is not None:
            waits.append(wait)
    return summarize_values(np.asarray(waits, dtype=float))


def summarize_response_times(
    requests: Iterable[Request],
    function_name: Optional[str] = None,
    warmup: float = 0.0,
) -> WaitingTimeSummary:
    """Like :func:`summarize_waiting_times` but over end-to-end response times."""
    values: List[float] = []
    for request in requests:
        if function_name is not None and request.function_name != function_name:
            continue
        if request.arrival_time < warmup:
            continue
        if request.status is not RequestStatus.COMPLETED:
            continue
        rt = request.response_time
        if rt is not None:
            values.append(rt)
    return summarize_values(np.asarray(values, dtype=float))


__all__ = ["percentile", "WaitingTimeSummary", "summarize_values",
           "summarize_waiting_times", "summarize_response_times"]
