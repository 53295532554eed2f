"""Availability and recovery-time accounting for fault-injection runs.

The SLO metrics of the healthy scenarios (waiting-time percentiles,
attainment) say nothing about what happens when capacity disappears.
:class:`AvailabilityTracker` adds the two fault-centric views the
recovery experiments report:

* **capacity availability** — the time-weighted mean of
  ``available_cpu / configured_cpu`` over the run, where *configured*
  is the cluster as specced and *available* excludes failed nodes.  A
  run with no failures scores exactly ``1.0``.
* **request availability** — :func:`request_availability`, the share
  of requests that completed among those that completed, failed or
  were dropped (``1.0`` when none did).
* **recovery records** — one :class:`RecoveryRecord` per node failure,
  tracking when the *controller* (not the node) restored service: the
  first time every function that lost warm capacity is back at its
  pre-failure warm-container count.  That is the paper-relevant number:
  it measures the re-provisioning loop, not the hardware.

Everything here is driven by the
:class:`~repro.faults.injector.FaultInjector`; the tracker itself is
pure bookkeeping and never touches the engine, so it adds no events and
cannot perturb determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional


@dataclass
class RecoveryRecord:
    """The lifecycle of one failure, from outage to restored service.

    ``recovery_time`` is ``None`` while the controller has not yet
    restored every affected function's pre-failure warm-container count
    (or forever, if the capacity to do so no longer exists).

    ``scope`` distinguishes the two failure granularities:

    * ``"node"`` (the default, and the historical behaviour) — one node
      failed; recovery means every affected function is back at its
      pre-failure cluster-wide warm count.
    * ``"site"`` — a whole site went dark (federation blackouts).  A
      site may *rejoin with a different node set* than it lost, so the
      pre-failure warm targets are clamped proportionally to the
      rejoined capacity when :meth:`AvailabilityTracker.site_rejoined`
      fires — otherwise a site that comes back smaller could never
      reach its old warm counts and the record would dangle open
      forever.
    """

    node: str
    fail_at: float
    recover_at: Optional[float]
    containers_lost: int
    #: per-function warm-container counts to restore (cluster-wide)
    warm_targets: Dict[str, int]
    recovery_time: Optional[float] = None
    #: failure granularity: ``"node"`` (default) or ``"site"``
    scope: str = "node"

    @property
    def recovered(self) -> bool:
        """Whether service was fully restored after this failure."""
        return self.recovery_time is not None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view (used in the scenario results ``faults`` group).

        ``scope`` is emitted only when non-default, so every node-scoped
        record — and therefore every fig10-era envelope — keeps its
        exact historical bytes.
        """
        data = {
            "node": self.node,
            "fail_at": self.fail_at,
            "recover_at": self.recover_at,
            "containers_lost": self.containers_lost,
            "recovery_time": self.recovery_time,
        }
        if self.scope != "node":
            data["scope"] = self.scope
        return data


class AvailabilityTracker:
    """Time-weighted capacity availability plus per-failure recovery records.

    The tracker is a step function: :meth:`record_capacity` appends a
    ``(time, fraction)`` breakpoint whenever node state changes, and
    :meth:`mean_availability` integrates the steps over ``[0, end]``.
    Before the first breakpoint the cluster is fully available.
    """

    def __init__(self) -> None:
        """Start fully available with no failure history."""
        self._breakpoints: List[tuple] = []  # (time, available fraction)
        self.records: List[RecoveryRecord] = []

    # ------------------------------------------------------------------
    # Capacity steps
    # ------------------------------------------------------------------
    def record_capacity(self, time: float, available_cpu: float,
                        configured_cpu: float) -> None:
        """Record a capacity step (called on every node failure/recovery)."""
        fraction = available_cpu / configured_cpu if configured_cpu > 0 else 0.0
        self._breakpoints.append((float(time), max(0.0, min(1.0, fraction))))

    def mean_availability(self, end_time: float) -> float:
        """Time-weighted mean available-capacity fraction over ``[0, end_time]``."""
        if end_time <= 0 or not self._breakpoints:
            return 1.0
        total = 0.0
        previous_time = 0.0
        previous_fraction = 1.0
        for time, fraction in self._breakpoints:
            clamped = min(max(time, 0.0), end_time)
            total += previous_fraction * (clamped - previous_time)
            previous_time = clamped
            previous_fraction = fraction
        total += previous_fraction * max(0.0, end_time - previous_time)
        return total / end_time

    # ------------------------------------------------------------------
    # Recovery records
    # ------------------------------------------------------------------
    def open_record(self, record: RecoveryRecord) -> None:
        """Register a node failure whose recovery should be tracked."""
        self.records.append(record)

    def open_records(self) -> List[RecoveryRecord]:
        """Failures whose service has not yet been restored."""
        return [r for r in self.records if not r.recovered]

    # ------------------------------------------------------------------
    # Site-scoped records (federation blackouts)
    # ------------------------------------------------------------------
    def open_site_record(self, site: str, fail_at: float,
                         containers_lost: int,
                         warm_targets: Dict[str, int]) -> RecoveryRecord:
        """Register a whole-site blackout whose recovery should be tracked.

        ``warm_targets`` captures the pre-blackout warm counts; an empty
        mapping (the site held no warm capacity) means there is nothing
        to restore, so the recovery time is zero by definition.
        """
        record = RecoveryRecord(
            node=site,
            fail_at=fail_at,
            recover_at=None,
            containers_lost=containers_lost,
            warm_targets=dict(warm_targets),
            scope="site",
        )
        if not record.warm_targets:
            record.recovery_time = 0.0
        self.records.append(record)
        return record

    def site_rejoined(self, site: str, recover_at: float,
                      capacity_ratio: float) -> Optional[RecoveryRecord]:
        """Mark a blacked-out site as rejoined, clamping its warm targets.

        A site may rejoin with a *different* node set than it lost
        (fewer nodes, smaller capacity).  Holding it to its pre-failure
        warm counts would leave the record dangling open forever, so
        each target is clamped to ``min(target, max(1, target * ratio))``
        — proportional to the capacity that actually came back, but
        never below one warm container per affected function.  A ratio
        of zero (nothing rejoined) leaves the record open: the site
        genuinely never recovered.
        """
        for record in self.records:
            if (record.scope != "site" or record.node != site
                    or record.recovered or record.recover_at is not None):
                continue
            record.recover_at = float(recover_at)
            if capacity_ratio <= 0.0:
                record.recover_at = None
                return None
            if capacity_ratio < 1.0:
                record.warm_targets = {
                    name: min(target, max(1, int(target * capacity_ratio)))
                    for name, target in record.warm_targets.items()
                }
            return record
        return None

    def check_site_recovery(self, site: str, now: float,
                            warm_count_of: Callable[[str], int]) -> bool:
        """Close site records whose (clamped) warm targets are all met.

        Called from the warm-container hook of the rejoined site's
        cluster.  ``warm_count_of`` maps a function name to its current
        site-wide warm count — deliberately node-set-agnostic, so any
        mix of rejoined nodes satisfies the target.  Returns ``True``
        if at least one record closed.
        """
        closed = False
        for record in self.records:
            if (record.scope != "site" or record.node != site
                    or record.recovered or record.recover_at is None):
                continue
            if all(warm_count_of(name) >= target
                   for name, target in record.warm_targets.items()):
                record.recovery_time = now - record.fail_at
                closed = True
        return closed

    def recovery_times(self) -> List[float]:
        """Recovery durations of the failures that did recover, in order."""
        return [r.recovery_time for r in self.records if r.recovery_time is not None]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary of the failure/recovery history."""
        times = self.recovery_times()
        return {
            "recoveries": [r.as_dict() for r in self.records],
            "mean_recovery_time": sum(times) / len(times) if times else None,
            "max_recovery_time": max(times) if times else None,
        }


def request_availability(counters: Mapping[str, int]) -> float:
    """Completions over completions, failed and dropped requests in ``counters``."""
    completions = counters.get("completions", 0)
    attempted = (completions + counters.get("failed_requests", 0)
                 + counters.get("drops", 0))
    return completions / attempted if attempted else 1.0


__all__ = ["AvailabilityTracker", "RecoveryRecord", "request_availability"]
