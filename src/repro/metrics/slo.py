"""SLO accounting.

An SLO in this system is "percentile ``p`` of requests must start (or
finish) within deadline ``d``".  :func:`slo_report` evaluates whether a
set of completed requests met that target, per function, using either
the waiting-time interpretation (the paper's default: requests must
*start* being processed by the deadline) or the response-time
interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import nan
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from repro.sim.request import Request, RequestStatus

#: One function's SLO tally: requests counted, requests dropped or timed
#: out, and the waiting (or response) time of every completed request in
#: request-list order (NaN where a completed request lacks the metric).
SloTally = Tuple[int, int, np.ndarray]


@dataclass(frozen=True)
class SloReport:
    """SLO attainment for one function."""

    function_name: str
    deadline: float
    target_percentile: float
    total_requests: int
    completed_requests: int
    dropped_requests: int
    within_deadline: int
    attainment: float
    satisfied: bool

    def as_dict(self) -> dict:
        """Plain-dict view for tabular output."""
        return {
            "function": self.function_name,
            "deadline": self.deadline,
            "target": self.target_percentile,
            "total": self.total_requests,
            "completed": self.completed_requests,
            "dropped": self.dropped_requests,
            "within_deadline": self.within_deadline,
            "attainment": self.attainment,
            "satisfied": self.satisfied,
        }


def slo_report(
    requests: Iterable[Request],
    deadlines: Mapping[str, float],
    target_percentile: float = 0.95,
    on_waiting_time: bool = True,
    warmup: float = 0.0,
    count_drops_as_violations: bool = True,
) -> Dict[str, SloReport]:
    """Evaluate SLO attainment per function.

    Parameters
    ----------
    requests:
        Requests observed during the experiment (any status).
    deadlines:
        Relative SLO deadline per function name (seconds).
    target_percentile:
        Required fraction of requests meeting the deadline.
    on_waiting_time:
        If true, a request "meets" the SLO when its *waiting* time is at
        most the deadline; otherwise its response time is used.
    warmup:
        Requests arriving before this time are excluded.
    count_drops_as_violations:
        Dropped / timed-out requests count against attainment when true.
    """
    per_function: Dict[str, list] = {}  # name -> [total, dropped, metrics]
    completed = RequestStatus.COMPLETED
    for request in requests:
        if request.arrival_time < warmup:
            continue
        name = request.function_name
        if name not in deadlines:
            continue
        stats = per_function.get(name)
        if stats is None:
            stats = per_function[name] = [0, 0, []]
        stats[0] += 1
        status = request.status
        if status is completed:
            metric = request.waiting_time if on_waiting_time else request.response_time
            stats[2].append(nan if metric is None else metric)
        elif status in (RequestStatus.DROPPED, RequestStatus.TIMED_OUT):
            stats[1] += 1
    tallies = {
        name: (total, dropped, np.asarray(metrics, dtype=float))
        for name, (total, dropped, metrics) in per_function.items()
    }
    return slo_reports_from_tallies(tallies, deadlines, target_percentile,
                                    count_drops_as_violations)


def slo_reports_from_tallies(
    tallies: Mapping[str, SloTally],
    deadlines: Mapping[str, float],
    target_percentile: float = 0.95,
    count_drops_as_violations: bool = True,
) -> Dict[str, SloReport]:
    """Turn per-function :data:`SloTally` values into reports, in ``tallies`` order.

    The one SLO count every path shares: :func:`slo_report` tallies a
    request list, and the columnar collector tallies the kernel's
    per-function columns.  A completed request meets the deadline when
    its metric is at most ``deadline + 1e-12``.
    """
    if not 0 < target_percentile < 1:
        raise ValueError("target_percentile must be in (0, 1)")
    reports: Dict[str, SloReport] = {}
    for name, (total, dropped, metrics) in tallies.items():
        completed = int(metrics.size)
        within = int(np.count_nonzero(metrics <= deadlines[name] + 1e-12))
        denominator = total if count_drops_as_violations else completed
        attainment = within / denominator if denominator else 1.0
        reports[name] = SloReport(
            function_name=name,
            deadline=deadlines[name],
            target_percentile=target_percentile,
            total_requests=total,
            completed_requests=completed,
            dropped_requests=dropped,
            within_deadline=within,
            attainment=attainment,
            satisfied=attainment >= target_percentile,
        )
    return reports


def overall_attainment(reports: Mapping[str, SloReport]) -> float:
    """Request-weighted SLO attainment across all functions."""
    total = sum(r.total_requests for r in reports.values())
    if total == 0:
        return 1.0
    within = sum(r.within_deadline for r in reports.values())
    return within / total


__all__ = ["SloReport", "SloTally", "slo_report", "slo_reports_from_tallies",
           "overall_attainment"]
