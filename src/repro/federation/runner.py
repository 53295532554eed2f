"""Runs one federated simulation: N sites, one engine, one global router.

Each site is wired exactly like the single cluster of
:class:`~repro.simulation.SimulationRunner`, by the shared
:class:`~repro.simulation.RunAssembly`: the bindings deployed, the
site's policy built, one arrival generator per function, one prewarm
and one drive.  What this module adds is only what is federated: the
global router, the site health monitor, the ingress/route/deliver/drop
path below, :class:`RouterStats`, and the ``federation`` report.  One
:class:`~repro.sim.engine.SimulationEngine` drives every site, so
cross-site causality (WAN transit, bounced deliveries, probe timing)
is totally ordered and the whole run stays a pure function of
``(scenario, seed)``.

Request flow
------------
Every arrival enters at its function's **origin site** and takes one of
three paths:

1. **Edge autonomy** — the origin is alive but WAN-partitioned: the
   request is dispatched directly by the origin's own control policy,
   bypassing the global router entirely (the router cannot see the
   site, but the site can see its own traffic — the KubeEdge model).
2. **Routing** — the router picks among believed-healthy sites
   (:class:`~repro.federation.health.SiteHealthMonitor` beliefs, which
   lag reality by up to one probe interval).  Same-site choices
   dispatch synchronously; cross-site choices pay the one-way WAN
   latency before delivery.
3. **Bounce / redirect** — a delivery that lands on a site that is
   actually dead or partitioned *bounces*: the monitor is told
   immediately, and after the return WAN trip the request re-routes
   with the bounced site excluded, up to ``max_redirects`` hops, after
   which it is dropped (``redirect_exhausted``).  A request with no
   healthy candidate at all is dropped at the origin
   (``no_healthy_site``).

Dropped requests are recorded against their *origin* site's metrics so
federation-wide request availability accounts for them.

Metrics are kept **per site** and merged only at result time, in site
order — which is what lets a WAN-partitioned site's envelope "merge
back" byte-deterministically after a heal: its collector never stopped
recording.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.cluster import EdgeCluster
from repro.core.controller import ControllerConfig
from repro.faults.spec import FaultSpec
from repro.federation.cluster import FederatedCluster
from repro.federation.health import SiteHealthMonitor
from repro.federation.injector import FederationFaultInjector
from repro.federation.router import RouterContext, build_router
from repro.federation.spec import FederationSpec
from repro.metrics.collector import MetricsCollector
from repro.simulation import RunAssembly, SimulationResult
from repro.sim.request import Request
from repro.workloads.generator import WorkloadBinding


class RouterStats:
    """Counters describing what the global router did during one run."""

    def __init__(self, site_names: Sequence[str]) -> None:
        """Zero every counter for the given sites."""
        self.dispatched: Dict[str, int] = {name: 0 for name in site_names}
        self.local_autonomy = 0
        self.cross_site = 0
        self.redirects = 0
        self.bounces = 0
        self.max_redirect_hops = 0
        self.drops: Counter = Counter()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view for the results envelope."""
        return {
            "dispatched": dict(self.dispatched),
            "local_autonomy": self.local_autonomy,
            "cross_site": self.cross_site,
            "redirects": self.redirects,
            "bounces": self.bounces,
            "max_redirect_hops": self.max_redirect_hops,
            "drops": {reason: self.drops[reason] for reason in sorted(self.drops)},
        }


class FederatedSimulationResult(SimulationResult):
    """Everything a finished federated run exposes for analysis.

    A :class:`~repro.simulation.SimulationResult` whose collector is
    the per-site request lists merged in site order (and the per-site
    counters summed), and whose utilisation is the configured-CPU-
    weighted mean over sites.  There is no single cluster or policy:
    ``cluster`` and ``controller`` are ``None``, and each site's own are
    on ``federation.sites``.
    """

    def __init__(self, federation: FederatedCluster, duration: float,
                 generated_requests: Dict[str, int]) -> None:
        """Merge per-site metrics into one federation-wide collector."""
        merged = MetricsCollector()
        requests: List[Request] = []
        for site in federation.sites:
            requests.extend(site.metrics.requests)
            merged.counters.update(site.metrics.counters)
        merged.requests = requests
        super().__init__(metrics=merged, cluster=None, controller=None,
                         duration=duration,
                         generated_requests=dict(generated_requests))
        self.federation = federation

    def mean_utilization(self, start: float = 0.0,
                         end: Optional[float] = None) -> float:
        """Configured-CPU-weighted mean utilisation across all sites."""
        total = 0.0
        weight = 0.0
        for site in self.federation.sites:
            w = site.cluster.configured_cpu
            total += w * site.metrics.mean_utilization(start, end)
            weight += w
        return total / weight if weight else 0.0


class FederatedSimulationRunner(RunAssembly):
    """Builds and runs one complete federated simulation.

    Parameters
    ----------
    workloads:
        One :class:`~repro.workloads.generator.WorkloadBinding` per
        function; every function is deployed on every site (traffic may
        be routed anywhere), and originates at
        ``federation.origin_of(name)``.
    federation:
        The :class:`~repro.federation.spec.FederationSpec` topology;
        each site runs its own ``policy`` / ``policy_params``.
    controller_config:
        Shared per-site controller parameters (epoch length, ...).
    seed:
        Master seed; arrival/work streams are per function, exactly as
        in the single-cluster runner.
    warm_start_containers:
        Per-function warm containers, created at the function's origin
        site before the workload starts.
    fault_spec:
        Optional :class:`~repro.faults.spec.FaultSpec` whose
        *site-level* faults (blackouts, partitions) are armed via
        :class:`~repro.federation.injector.FederationFaultInjector`.
    """

    def __init__(
        self,
        workloads: Sequence[WorkloadBinding],
        federation: FederationSpec,
        controller_config: Optional[ControllerConfig] = None,
        seed: int = 1,
        warm_start_containers: Optional[Mapping[str, int]] = None,
        fault_spec: Optional[FaultSpec] = None,
    ) -> None:
        """Build the sites and their policies, the router, the generators and the fault injector."""
        super().__init__(workloads, seed, warm_start_containers)
        self.spec = federation
        self.federation = FederatedCluster(self.engine, federation)
        config = controller_config or ControllerConfig()
        for site in self.federation.sites:
            site.attach_policy(
                self._deploy_policy(site.cluster, site.metrics, config,
                                    site.spec.policy, site.spec.policy_params),
                self.default_rates,
            )

        self.monitor = SiteHealthMonitor(
            self.engine, self.federation,
            probe_interval=federation.probe_interval,
            backoff_base=federation.probe_backoff_base,
            backoff_cap=federation.probe_backoff_cap,
        )
        self.router = build_router(
            federation.router,
            RouterContext(engine=self.engine, federation=self.federation,
                          spec=federation),
            federation.router_params,
        )
        self.stats = RouterStats(self.federation.site_names())
        self._origins: Dict[str, str] = {
            binding.profile.name: federation.origin_of(binding.profile.name)
            for binding in self.bindings
        }
        self._make_generators(self._ingress)

        self.fault_injector: Optional[FederationFaultInjector] = None
        if fault_spec is not None and not fault_spec.is_empty():
            if fault_spec.has_node_faults():
                raise ValueError(
                    "federated runs take site-level faults only "
                    "(site_blackouts / wan_partitions)"
                )
            self.fault_injector = FederationFaultInjector(
                self.engine, self.federation, fault_spec)

    # ------------------------------------------------------------------
    # Ingress / routing / delivery
    # ------------------------------------------------------------------
    def _ingress(self, request: Request) -> None:
        """Entry point for every arrival: autonomy check, then routing."""
        origin_name = self._origins[request.function_name]
        origin = self.federation.site(origin_name)
        if origin.alive and not origin.reachable:
            # Edge autonomy: the partitioned site cannot be seen by the
            # router, but its local control loop keeps serving its own
            # arrivals.
            self.stats.local_autonomy += 1
            self.stats.dispatched[origin_name] += 1
            origin.policy.dispatch(request)
            return
        self._route(request, origin_name, hops=0, excluded=())

    def _route(self, request: Request, origin_name: str, hops: int,
               excluded: Tuple[str, ...]) -> None:
        """Score candidates and deliver (or drop) one request."""
        candidates = [name for name in self.monitor.healthy_sites()
                      if name not in excluded]
        if not candidates:
            self._drop(request, origin_name, "no_healthy_site")
            return
        target = self.router.choose_site(request, origin_name, candidates)
        if target is None:
            self._drop(request, origin_name, "router_refused")
            return
        if target not in candidates:
            raise RuntimeError(
                f"router {self.spec.router!r} chose {target!r} "
                f"outside its candidate set {candidates}"
            )
        if target == origin_name:
            self._deliver(request, origin_name, target, hops, excluded)
            return
        self.stats.cross_site += 1
        self.engine.call_later(
            self.federation.latency(origin_name, target),
            self._deliver, request, origin_name, target, hops, excluded)

    def _deliver(self, request: Request, origin_name: str, target_name: str,
                 hops: int, excluded: Tuple[str, ...]) -> None:
        """Hand the request to the target site — or bounce off a dead one."""
        site = self.federation.site(target_name)
        if site.deliverable:
            self.stats.dispatched[target_name] += 1
            site.policy.dispatch(request)
            return
        self.stats.bounces += 1
        self.monitor.mark_unreachable(target_name)
        if hops >= self.spec.max_redirects:
            self._drop(request, origin_name, "redirect_exhausted")
            return
        self.engine.call_later(
            self.federation.latency(target_name, origin_name),
            self._redirect, request, origin_name, hops + 1,
            excluded + (target_name,))

    def _redirect(self, request: Request, origin_name: str, hops: int,
                  excluded: Tuple[str, ...]) -> None:
        """Re-route a bounced request with the dead site excluded."""
        self.stats.redirects += 1
        self.stats.max_redirect_hops = max(self.stats.max_redirect_hops, hops)
        self._route(request, origin_name, hops, excluded)

    def _drop(self, request: Request, origin_name: str, reason: str) -> None:
        """Drop an unroutable request, accounted at its origin site."""
        site = self.federation.site(origin_name)
        site.metrics.record_request(request)
        request.mark_dropped(self.engine.now)
        site.metrics.record_drop()
        self.stats.drops[reason] += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _warm_cluster(self, function_name: str) -> EdgeCluster:
        """Warm-start containers go on the function's origin site."""
        return self.federation.site(self.spec.origin_of(function_name)).cluster

    def _start(self) -> None:
        """Start every site's control loop, then the health probes and the router."""
        for site in self.federation.sites:
            site.policy.start()
        self.monitor.start()
        self.router.start()

    def run(self, duration: float,
            extra_drain: float = 5.0) -> FederatedSimulationResult:
        """Run the federated simulation for ``duration`` seconds of workload."""
        generated = self._drive(duration, extra_drain)
        return FederatedSimulationResult(
            federation=self.federation,
            duration=duration,
            generated_requests=generated,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def federation_report(self) -> Dict[str, Any]:
        """The ``federation`` group of the results envelope."""
        sites: Dict[str, Any] = {}
        for site in self.federation.sites:
            dispatcher = getattr(site.policy, "dispatcher", None)
            sites[site.name] = {
                "counters": {key: site.metrics.counters[key]
                             for key in sorted(site.metrics.counters)},
                "mean_utilization": site.metrics.mean_utilization(),
                "queued_at_end": (dispatcher.total_queued()
                                  if dispatcher is not None else 0),
            }
        return {
            "router": {"policy": self.spec.router, **self.stats.as_dict()},
            "health": {
                "probes_sent": self.monitor.probes_sent,
                "transitions": [[time, name, up]
                                for time, name, up in self.monitor.transitions],
            },
            "sites": sites,
        }


__all__ = [
    "FederatedSimulationRunner",
    "FederatedSimulationResult",
    "RouterStats",
]
