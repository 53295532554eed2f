"""The central metrics collector the controller and experiments write into.

One :class:`MetricsCollector` instance accompanies each simulation run.
It accumulates every request (for waiting-time and SLO analysis), an
allocation timeline point per function per epoch (for the Figure 6/8/9
style plots), utilisation samples, and free-form counters (cold starts,
drops, container operations).

Waiting-time and SLO summaries come from the stored request objects,
except right after a columnar run: the kernel then publishes its
per-function columns (:class:`RequestColumns`) and the summaries are
computed from those arrays with NumPy, so no ``Request`` object has to
be rebuilt unless something reads :attr:`MetricsCollector.requests`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.metrics.percentiles import (
    WaitingTimeSummary,
    summarize_values,
    summarize_waiting_times,
)
from repro.metrics.slo import SloReport, slo_report, slo_reports_from_tallies
from repro.metrics.timeline import AllocationTimeline, TimelinePoint
from repro.metrics.utilization import UtilizationTracker
from repro.sim.request import Request, RequestStatus


class RequestColumns(NamedTuple):
    """One function's requests as parallel arrays, in request-list order."""

    #: Arrival times (float64), non-decreasing.
    arrival: np.ndarray
    #: Waiting times, start minus arrival (float64); meaningful where
    #: ``completed`` is set.
    wait: np.ndarray
    #: The request completed.
    completed: np.ndarray
    #: The request was dropped or timed out.
    dropped: np.ndarray
    #: Request ids, which order functions by first appearance.
    request_ids: Sequence[int]


@dataclass(frozen=True)
class FunctionEpochStats:
    """Per-function statistics captured at the end of one controller epoch."""

    function_name: str
    containers: int
    cpu: float
    desired_containers: int
    arrival_rate_estimate: float
    service_rate_estimate: float


@dataclass(frozen=True)
class EpochSnapshot:
    """Cluster-wide snapshot captured at the end of one controller epoch."""

    time: float
    overloaded: bool
    total_cpu: float
    allocated_cpu: float
    functions: Dict[str, FunctionEpochStats] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Allocated fraction of cluster CPU at this epoch."""
        return self.allocated_cpu / self.total_cpu if self.total_cpu else 0.0


class MetricsCollector:
    """Accumulates everything an experiment needs to report."""

    def __init__(self) -> None:
        """Start with no requests, epochs, or counters."""
        self._requests: List[Request] = []
        self._deferred_fill: Optional[Callable[[], List[Request]]] = None
        self._columns: Optional[Callable[[str], Optional[RequestColumns]]] = None
        self.timeline = AllocationTimeline()
        self.utilization = UtilizationTracker()
        self.epochs: List[EpochSnapshot] = []
        self.counters: Counter = Counter()

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    @property
    def requests(self) -> List[Request]:
        """Every recorded request, materializing a deferred columnar list once.

        The columnar data plane registers a fill callback via
        :meth:`defer_requests` instead of appending per request; the
        first access reconstructs the full list (and drops the callback
        and the column source), so analysis code is oblivious to which
        data plane produced the run.
        """
        fill = self._deferred_fill
        if fill is not None:
            self._deferred_fill = None
            self._columns = None
            self._requests = fill()
        return self._requests

    @requests.setter
    def requests(self, value: List[Request]) -> None:
        """Replace the stored request list (drops any pending deferred fill)."""
        self._deferred_fill = None
        self._columns = None
        self._requests = value

    def defer_requests(
        self,
        fill: Callable[[], List[Request]],
        columns: Callable[[str], Optional[RequestColumns]],
    ) -> None:
        """Register a callback that reconstructs the request list on demand.

        Used by the columnar kernel so the hot loop never appends request
        objects; any previously stored requests are superseded (the
        kernel's fill covers the whole run).  ``columns`` maps a
        function name to that function's :class:`RequestColumns` (or
        ``None`` when the run has no such function).  While the fill is
        pending, :meth:`waiting_summary` for one function and
        :meth:`slo` compute their results from these arrays, built per
        call and dropped afterwards.  Once :attr:`requests` is read or
        assigned, the request objects are the only source again.
        """
        self._requests = []
        self._deferred_fill = fill
        self._columns = columns

    def record_request(self, request: Request) -> None:
        """Register a request (typically at arrival; its fields keep updating)."""
        self.requests.append(request)
        self.counters["arrivals"] += 1

    def record_completion(self, request: Request) -> None:
        """Count one completed request (the request is already registered)."""
        self.counters["completions"] += 1
        if request.cold_start:
            self.counters["cold_starts"] += 1

    # -- columnar folds (epoch-granular, from the vectorized data plane) --
    def fold_arrivals(self, count: int) -> None:
        """Count ``count`` arrivals at once (columnar plane's batched fold)."""
        self.counters["arrivals"] += count

    def fold_completion(self, function_name: str, waiting_time: float,
                        cold_start: bool) -> None:
        """Count one completion from columnar state (no request object).

        The per-item form of :meth:`fold_completions_bulk`, field for
        field equivalent to :meth:`record_completion`; the columnar
        kernel folds in bulk, and ``lassbench``'s tracer wraps this
        method by name.
        """
        self.counters["completions"] += 1
        if cold_start:
            self.counters["cold_starts"] += 1

    def fold_completions_bulk(self, count: int, cold_starts: int) -> None:
        """Count a whole batch of completions at once."""
        self.counters["completions"] += count
        if cold_starts:
            self.counters["cold_starts"] += cold_starts

    def record_drop(self, count: int = 1) -> None:
        """Count dropped requests (terminated containers, failed nodes)."""
        self.counters["drops"] += count

    def increment(self, counter: str, count: int = 1) -> None:
        """Bump an arbitrary named counter (container ops, burst switches, ...)."""
        self.counters[counter] += count

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    def record_epoch(self, snapshot: EpochSnapshot) -> None:
        """Store an epoch snapshot and mirror it into timeline/utilisation."""
        self.epochs.append(snapshot)
        self.utilization.record(snapshot.time, snapshot.allocated_cpu, snapshot.total_cpu)
        for stats in snapshot.functions.values():
            self.timeline.record(
                TimelinePoint(
                    time=snapshot.time,
                    function_name=stats.function_name,
                    containers=stats.containers,
                    cpu=stats.cpu,
                    desired_containers=stats.desired_containers,
                    arrival_rate=stats.arrival_rate_estimate,
                )
            )

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def completed_requests(self, function_name: Optional[str] = None) -> List[Request]:
        """All completed requests, optionally restricted to one function."""
        return [
            r
            for r in self.requests
            if r.status is RequestStatus.COMPLETED
            and (function_name is None or r.function_name == function_name)
        ]

    def dropped_requests(self, function_name: Optional[str] = None) -> List[Request]:
        """All dropped or timed-out requests."""
        return [
            r
            for r in self.requests
            if r.status in (RequestStatus.DROPPED, RequestStatus.TIMED_OUT)
            and (function_name is None or r.function_name == function_name)
        ]

    def waiting_summary(
        self, function_name: Optional[str] = None, warmup: float = 0.0
    ) -> WaitingTimeSummary:
        """Waiting-time percentiles for (a function's) completed requests.

        Computed exactly, from the columnar kernel's columns when they
        are registered (see :meth:`defer_requests`), else from the
        stored requests.
        """
        columns = self._columns
        if columns is not None and function_name is not None:
            cols = columns(function_name)
            if cols is None:
                return summarize_values(np.empty(0))
            first = _first_after_warmup(cols, warmup)
            return summarize_values(_completed_waits(cols, first))
        return summarize_waiting_times(self.requests, function_name, warmup)

    def slo(
        self,
        deadlines: Mapping[str, float],
        target_percentile: float = 0.95,
        warmup: float = 0.0,
    ) -> Dict[str, SloReport]:
        """SLO attainment per function, on waiting time, drops counting as misses.

        Computed from the columnar kernel's columns when they are
        registered (see :meth:`defer_requests`), else from the stored
        requests; functions appear in the order of their first request
        after ``warmup`` either way.
        """
        columns = self._columns
        if columns is None:
            return slo_report(self.requests, deadlines, target_percentile, warmup=warmup)
        tallies = []
        for name in deadlines:
            cols = columns(name)
            if cols is None:
                continue
            first = _first_after_warmup(cols, warmup)
            total = len(cols.arrival) - first
            if total:
                dropped = int(np.count_nonzero(cols.dropped[first:]))
                tallies.append((cols.request_ids[first], name,
                                (total, dropped, _completed_waits(cols, first))))
        tallies.sort(key=lambda entry: entry[0])
        return slo_reports_from_tallies(
            {name: tally for _, name, tally in tallies}, deadlines, target_percentile
        )

    def mean_utilization(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Time-weighted mean cluster utilisation."""
        return self.utilization.mean_utilization(start, end)

    def throughput(self, function_name: Optional[str] = None) -> int:
        """Number of completed requests."""
        return len(self.completed_requests(function_name))

    def summary(self, deadlines: Optional[Mapping[str, float]] = None) -> Dict[str, object]:
        """A compact dict summary of the whole run, used by examples and reports."""
        result: Dict[str, object] = {
            "arrivals": self.counters.get("arrivals", 0),
            "completions": self.counters.get("completions", 0),
            "drops": self.counters.get("drops", 0),
            "cold_starts": self.counters.get("cold_starts", 0),
            "epochs": len(self.epochs),
            "mean_utilization": self.mean_utilization(),
        }
        if deadlines:
            reports = self.slo(deadlines)
            result["slo"] = {name: report.attainment for name, report in reports.items()}
        return result


def _first_after_warmup(cols: RequestColumns, warmup: float) -> int:
    """Index of the first row that did not arrive before ``warmup``."""
    return int(np.searchsorted(cols.arrival, warmup, side="left"))


def _completed_waits(cols: RequestColumns, first: int) -> np.ndarray:
    """Waiting times of the completed rows from ``first`` on, in row order."""
    return cols.wait[first:][cols.completed[first:]]


__all__ = ["MetricsCollector", "EpochSnapshot", "FunctionEpochStats", "RequestColumns"]
