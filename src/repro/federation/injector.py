"""Turns site-level fault specs into engine events: blackouts, partitions.

The federation analogue of :class:`~repro.faults.injector.FaultInjector`,
with site-granular semantics:

* **Blackout** (:class:`~repro.faults.spec.SiteBlackoutSpec`) — every
  node of the site fails at once.  Running requests are failed; queued
  requests are salvaged and **parked at the federation level** (a dead
  site cannot hold a queue).  On rejoin — possibly with *fewer nodes*
  (``rejoin_nodes``) — the parked work is requeued **at the head** of
  the site's shared per-function queues, the site-scoped availability
  record gets its warm targets clamped to the rejoined capacity
  (:meth:`~repro.metrics.availability.AvailabilityTracker.site_rejoined`),
  and the site's control policy is notified per recovered node.
* **Partition** (:class:`~repro.faults.spec.WanPartitionSpec`) — flips
  only the site's ``reachable`` flag.  No capacity is lost, nothing is
  parked: the site's local control loop keeps serving its own arrivals
  (edge autonomy) while the router redirects global traffic around it.
  On heal the flag flips back and the site's metrics — which kept
  accumulating throughout — merge into the federation envelope as if
  nothing happened, byte-deterministically.

Availability accounting is two-level: one
:class:`~repro.metrics.availability.AvailabilityTracker` per site plus
a federation-level tracker integrating
``available_cpu / configured_cpu`` across all sites, both reported in
the results envelope's ``faults`` group.

All events fire at
:data:`~repro.sim.engine.SimulationEngine.PRIORITY_FAULT` from explicit
spec times; nothing here consumes randomness, so fault schedules keep
runs pure functions of ``(scenario, seed)``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Mapping, TYPE_CHECKING

from repro.faults.spec import FaultSpec, SiteBlackoutSpec, WanPartitionSpec
from repro.metrics.availability import AvailabilityTracker, request_availability
from repro.sim.engine import SimulationEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.cluster import FederatedCluster, FederatedSite
    from repro.sim.request import Request


class FederationFaultInjector:
    """Arms a :class:`~repro.faults.spec.FaultSpec`'s site-level faults."""

    def __init__(self, engine: SimulationEngine, federation: "FederatedCluster",
                 spec: FaultSpec) -> None:
        """Validate site names and schedule every blackout/partition event."""
        self.engine = engine
        self.federation = federation
        self.spec = spec
        known = set(federation.site_names())
        for fault in (*spec.site_blackouts, *spec.wan_partitions):
            if fault.site not in known:
                raise ValueError(
                    f"fault references unknown site {fault.site!r}; "
                    f"federated sites: {sorted(known)}"
                )
        for blackout in spec.site_blackouts:
            site_spec = federation.site(blackout.site).spec
            if (blackout.rejoin_nodes is not None
                    and blackout.rejoin_nodes > site_spec.node_count):
                raise ValueError(
                    f"site {blackout.site!r}: rejoin_nodes={blackout.rejoin_nodes} "
                    f"exceeds node_count={site_spec.node_count}"
                )
        self.counters: Counter = Counter()
        self.site_availability: Dict[str, AvailabilityTracker] = {
            name: AvailabilityTracker() for name in federation.site_names()
        }
        self.federation_availability = AvailabilityTracker()
        #: Salvaged-but-unserved work of each dark site, in salvage order.
        self._parked: Dict[str, List["Request"]] = {}
        for blackout in spec.site_blackouts:
            engine.call_at(blackout.fail_at, self._blackout, blackout,
                           priority=SimulationEngine.PRIORITY_FAULT)
            if blackout.recover_at is not None:
                engine.call_at(blackout.recover_at, self._rejoin, blackout,
                               priority=SimulationEngine.PRIORITY_FAULT)
        for partition in spec.wan_partitions:
            engine.call_at(partition.start_at, self._partition, partition,
                           priority=SimulationEngine.PRIORITY_FAULT)
            if partition.heal_at is not None:
                engine.call_at(partition.heal_at, self._heal, partition,
                               priority=SimulationEngine.PRIORITY_FAULT)
        for site in federation.sites:
            site.cluster.on_container_warm(
                lambda container, name=site.name: self._on_warm(name))

    # ------------------------------------------------------------------
    # Blackouts
    # ------------------------------------------------------------------
    def _blackout(self, blackout: SiteBlackoutSpec) -> None:
        """Take every node of the site down; park salvaged queued work."""
        site = self.federation.site(blackout.site)
        if not site.alive:
            return
        now = self.engine.now
        warm_targets = {
            name: site.warm_count(name)
            for name in sorted(site.cluster.function_names)
            if site.warm_count(name) > 0
        }
        containers_lost = sum(len(node.containers) for node in site.cluster.nodes)
        site.alive = False
        interrupted: List["Request"] = []
        salvaged: List["Request"] = []
        for node in site.cluster.nodes:
            failed, queued = site.cluster.fail_node(node.name)
            interrupted.extend(failed)
            salvaged.extend(queued)
        self.counters["site_blackouts"] += 1
        self.counters["failed_requests"] += len(interrupted)
        self.counters["parked_requests"] += len(salvaged)
        site.metrics.increment("site_blackouts")
        if interrupted:
            site.metrics.increment("failed_requests", len(interrupted))
        if salvaged:
            site.metrics.increment("parked_requests", len(salvaged))
            self._parked.setdefault(blackout.site, []).extend(salvaged)
        tracker = self.site_availability[blackout.site]
        tracker.record_capacity(now, site.cluster.total_cpu,
                                site.cluster.configured_cpu)
        tracker.open_site_record(blackout.site, now, containers_lost, warm_targets)
        self.federation_availability.record_capacity(
            now, self.federation.available_cpu, self.federation.configured_cpu)

    def _rejoin(self, blackout: SiteBlackoutSpec) -> None:
        """Bring the site back (possibly smaller) and requeue parked work."""
        site = self.federation.site(blackout.site)
        if site.alive:
            return
        now = self.engine.now
        rejoin_count = (blackout.rejoin_nodes if blackout.rejoin_nodes is not None
                        else len(site.cluster.nodes))
        recovered_nodes = site.cluster.nodes[:rejoin_count]
        for node in recovered_nodes:
            site.cluster.recover_node(node.name)
        site.alive = True
        self.counters["site_recoveries"] += 1
        site.metrics.increment("site_recoveries")
        tracker = self.site_availability[blackout.site]
        tracker.record_capacity(now, site.cluster.total_cpu,
                                site.cluster.configured_cpu)
        ratio = (site.cluster.total_cpu / site.cluster.configured_cpu
                 if site.cluster.configured_cpu > 0 else 0.0)
        tracker.site_rejoined(blackout.site, now, ratio)
        self.federation_availability.record_capacity(
            now, self.federation.available_cpu, self.federation.configured_cpu)
        parked = self._parked.pop(blackout.site, [])
        if parked and site.policy is not None:
            self.counters["requeued_requests"] += len(parked)
            site.metrics.increment("requeued_requests", len(parked))
            site.policy._requeue_salvaged(parked)
        for node in recovered_nodes:
            if site.policy is not None:
                site.policy.on_node_recovered(node.name)

    def _on_warm(self, site_name: str) -> None:
        """Close the site's open recovery records once warm targets are met."""
        site = self.federation.site(site_name)
        self.site_availability[site_name].check_site_recovery(
            site_name, self.engine.now, site.warm_count)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def _partition(self, partition: WanPartitionSpec) -> None:
        """Cut the WAN path to the site; local control keeps running."""
        site = self.federation.site(partition.site)
        if not site.reachable:
            return
        site.reachable = False
        self.counters["wan_partitions"] += 1
        site.metrics.increment("wan_partitions")

    def _heal(self, partition: WanPartitionSpec) -> None:
        """Restore the WAN path; the next probe folds the site back in."""
        site = self.federation.site(partition.site)
        if site.reachable:
            return
        site.reachable = True
        self.counters["wan_heals"] += 1
        site.metrics.increment("wan_heals")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def parked_count(self) -> int:
        """Requests currently parked for dark sites."""
        return sum(len(requests) for requests in self._parked.values())

    def report(self, duration: float,
               counters: Mapping[str, int]) -> Dict[str, Any]:
        """The ``faults`` group of a federated results envelope.

        ``counters`` is the federation-wide merged metrics counter set
        (completions/failures/drops across every site) from which
        request availability is computed; per-site recovery time — the
        acceptance-criterion number — comes from each site's own
        tracker.
        """
        sites: Dict[str, Any] = {}
        for name in self.federation.site_names():
            tracker = self.site_availability[name]
            sites[name] = {
                "capacity_availability": tracker.mean_availability(duration),
                **tracker.as_dict(),
            }
        return {
            "capacity_availability":
                self.federation_availability.mean_availability(duration),
            "request_availability": request_availability(counters),
            "site_blackouts": self.counters.get("site_blackouts", 0),
            "site_recoveries": self.counters.get("site_recoveries", 0),
            "wan_partitions": self.counters.get("wan_partitions", 0),
            "wan_heals": self.counters.get("wan_heals", 0),
            "failed_requests": self.counters.get("failed_requests", 0),
            "parked_requests": self.counters.get("parked_requests", 0),
            "requeued_requests": self.counters.get("requeued_requests", 0),
            "unrecovered_parked": self.parked_count(),
            "sites": sites,
        }


__all__ = ["FederationFaultInjector"]
