"""Run assembly: wire workloads, clusters, and control policies into one run.

Every edge cluster runs the same control loop (Algorithm 1 sizing, fair
share, reclamation), whether it is the only cluster of a run or one
site of a federation.  :class:`RunAssembly` is the one place that loop
is wired: binding validation, deploying the bindings on a cluster,
building its policy, one arrival generator per binding, the prewarm,
and the drive of the engine.  :class:`SimulationRunner` is the
single-cluster run built on it, and
:class:`~repro.federation.runner.FederatedSimulationRunner` the
federated one.

This is the main entry point for examples and experiments::

    from repro import SimulationRunner, ClusterConfig, ControllerConfig
    from repro.workloads import WorkloadBinding, StaticRate, get_function

    runner = SimulationRunner(
        cluster_config=ClusterConfig(node_count=3, cpu_per_node=4),
        controller_config=ControllerConfig(),
        workloads=[WorkloadBinding(get_function("squeezenet"), StaticRate(20, duration=300))],
        seed=1,
    )
    result = runner.run(duration=300)
    print(result.waiting_summary("squeezenet").p95)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.cluster.cluster import ClusterConfig, EdgeCluster
from repro.cluster.container import ContainerState
from repro.core.controller import ControllerConfig
from repro.core.policy import ControlPolicy, PolicyContext, build_policy
from repro.core.allocation.hierarchy import SchedulingTree
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.metrics.collector import MetricsCollector
from repro.metrics.percentiles import WaitingTimeSummary
from repro.metrics.slo import SloReport
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request
from repro.sim.rng import RngStreams
from repro.workloads.generator import ArrivalGenerator, WorkloadBinding

#: A registered policy name, or an ad-hoc ``factory(context) -> ControlPolicy``.
PolicyChoice = Union[str, Callable[[PolicyContext], ControlPolicy]]


@dataclass
class SimulationResult:
    """Everything a finished run exposes for analysis.

    ``controller`` is the run's control-plane policy — a
    :class:`~repro.core.controller.LassController` by default, or
    whichever registered :class:`~repro.core.policy.ControlPolicy` the
    runner was asked for.  A federated run has no single cluster or
    policy, so both are ``None`` there (see
    :class:`~repro.federation.runner.FederatedSimulationResult`).
    """

    metrics: MetricsCollector
    cluster: Optional[EdgeCluster]
    controller: Optional[ControlPolicy]
    duration: float
    generated_requests: Dict[str, int] = field(default_factory=dict)

    def waiting_summary(self, function_name: Optional[str] = None, warmup: float = 0.0) -> WaitingTimeSummary:
        """Waiting-time percentiles for one function (or all)."""
        return self.metrics.waiting_summary(function_name, warmup)

    def slo(self, deadlines: Mapping[str, float], percentile: float = 0.95,
            warmup: float = 0.0) -> Dict[str, SloReport]:
        """SLO attainment per function."""
        return self.metrics.slo(deadlines, percentile, warmup)

    def mean_utilization(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Time-weighted mean cluster utilisation over the run."""
        return self.metrics.mean_utilization(start, end)

    def container_timeline(self, function_name: str):
        """``(times, container counts)`` series for a function."""
        return self.metrics.timeline.container_series(function_name)

    def cpu_timeline(self, function_name: str):
        """``(times, allocated CPU)`` series for a function."""
        return self.metrics.timeline.cpu_series(function_name)


class RunAssembly:
    """The per-run wiring shared by the single-cluster and federated runners.

    Builds one :class:`~repro.sim.engine.SimulationEngine` and one
    :class:`~repro.sim.rng.RngStreams` per run after validating the
    bindings (at least one, unique function names).  A subclass then
    calls :meth:`_deploy_policy` once per cluster and
    :meth:`_make_generators` once, and its ``run`` calls :meth:`_drive`.
    It says where a function's warm-start containers go
    (``_warm_cluster(name)``), what starts before the workload
    (``_start()``) and, optionally, which columnar kernel stands in for
    the event plane (:meth:`_kernel`).
    """

    def __init__(self, workloads: Sequence[WorkloadBinding], seed: int,
                 warm_start_containers: Optional[Mapping[str, int]]) -> None:
        """Validate the bindings and create the engine and random streams."""
        if not workloads:
            raise ValueError("at least one workload binding is required")
        names = [w.profile.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValueError("duplicate function names in workload bindings")
        self.bindings = list(workloads)
        self.engine = SimulationEngine()
        self.rng = RngStreams(seed)
        #: Each function's service rate at the standard size.
        self.default_rates: Dict[str, float] = {
            b.profile.name: b.profile.service_rate for b in self.bindings
        }
        # the paper's option 1: every policy gets each function's offline
        # service-time profile
        self._profiles = {b.profile.name: b.profile.to_service_profile()
                          for b in self.bindings}
        self.generators: List[ArrivalGenerator] = []
        self._warm_start = dict(warm_start_containers or {})

    def _deploy_policy(self, cluster: EdgeCluster, metrics: MetricsCollector,
                       config: Optional[ControllerConfig], policy: PolicyChoice,
                       policy_params: Optional[Mapping[str, Any]] = None,
                       scheduling_tree: Optional[SchedulingTree] = None) -> ControlPolicy:
        """Deploy every binding on ``cluster`` and build its control policy."""
        for binding in self.bindings:
            cluster.deploy(binding.profile.to_deployment(
                weight=binding.weight,
                user=binding.user,
                slo_deadline=binding.slo_deadline,
            ))
        context = PolicyContext(
            engine=self.engine,
            cluster=cluster,
            metrics=metrics,
            config=config or ControllerConfig(),
            scheduling_tree=scheduling_tree,
            service_profiles=self._profiles,
            default_service_rates=self.default_rates,
        )
        if isinstance(policy, str):
            return build_policy(policy, context, policy_params)
        if policy_params:
            raise ValueError("policy_params require a registered policy name")
        return policy(context)

    def _make_generators(self, dispatch: Callable[[Request], Any],
                         batch_size: int = 256) -> None:
        """One arrival generator per binding, on its own arrival and work streams."""
        self.generators = [
            ArrivalGenerator(
                engine=self.engine,
                profile=binding.profile,
                schedule=binding.schedule,
                dispatch=dispatch,
                rng=self.rng.stream(f"arrivals:{binding.profile.name}"),
                slo_deadline=binding.slo_deadline,
                batch_size=batch_size,
                work_rng=self.rng.stream(f"work:{binding.profile.name}"),
            )
            for binding in self.bindings
        ]

    def prewarm(self) -> None:
        """Create the requested warm-start containers and let them finish cold start.

        Idempotent: the containers are created on the first call only,
        so ``run`` (which always prewarms) may follow an explicit call
        that adjusted the warm fleet in between.  The engine then steps
        past the longest cold start among the clusters that received
        containers.
        """
        warm_start, self._warm_start = self._warm_start, {}
        created = []
        latency = 0.0
        sampled = False
        for name, count in warm_start.items():
            if count <= 0:
                continue
            cluster = self._warm_cluster(name)
            created.extend(cluster.create_container(name) for _ in range(count))
            latency = max(latency, cluster.config.cold_start_latency)
            sampled = sampled or cluster.cold_start_sampler is not None
        if not created:
            return
        if not sampled:
            self.engine.run(until=self.engine.now + latency + 1e-6)
            return
        # cold-start latencies are sampled per container: step until every
        # warm-start container left STARTING (fault-injected runs only, so
        # the healthy prewarm path stays byte-exact)
        while any(c.state is ContainerState.STARTING for c in created):
            if not self.engine.step():  # pragma: no cover - defensive
                break

    def _kernel(self) -> Any:
        """The columnar kernel that replaces the event plane, or ``None``."""
        return None

    def _drive(self, duration: float, extra_drain: float) -> Dict[str, int]:
        """Prewarm, start the control loops and the workload, run the engine.

        Generators are clamped to ``duration``; the engine runs
        ``extra_drain`` seconds past it so in-flight requests complete.
        Returns the number of requests each function generated.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.prewarm()
        self._start()
        for generator in self.generators:
            if generator.horizon is None or generator.horizon > duration:
                generator.horizon = duration
        kernel = self._kernel()
        if kernel is not None:
            kernel.run(until=duration + extra_drain)
        else:
            for generator in self.generators:
                generator.start()
            self.engine.run(until=duration + extra_drain)
        return {g.profile.name: g.generated for g in self.generators}


class SimulationRunner(RunAssembly):
    """Builds and runs one complete single-cluster LaSS simulation.

    Parameters
    ----------
    workloads:
        One :class:`~repro.workloads.generator.WorkloadBinding` per function.
    cluster_config:
        Cluster sizing (defaults to the paper's 3×(4 vCPU, 16 GB) testbed).
    controller_config:
        Controller parameters (epoch length, reclamation policy, ...).
    scheduling_tree:
        Optional explicit fair-share hierarchy; otherwise built from the
        bindings' users and weights.
    seed:
        Master seed for all random streams.
    warm_start_containers:
        Per-function number of containers to create before the workload
        starts, so experiments that study steady-state behaviour do not
        measure the very first cold start.  With the ``"noop"`` policy
        this is the whole fleet: the fixed-allocation experiments
        (``kind="fixed"``) call :meth:`prewarm` themselves, adjust the
        warm containers (e.g. deflate some), then :meth:`run`.
    arrival_batch_size:
        Arrivals scheduled per engine batch by each generator (see
        :class:`~repro.workloads.generator.ArrivalGenerator`); results
        are independent of this value because each function gets
        separate arrival and work RNG streams.  ``1`` reproduces the
        seed's per-event cadence and is used by the determinism
        regression test.
    fault_spec:
        Optional :class:`~repro.faults.spec.FaultSpec`; when given (and
        non-empty) a :class:`~repro.faults.injector.FaultInjector` is
        armed against the run — node failures/recoveries, container
        crash-on-dispatch, and cold-start latency distributions, all
        deterministic under the run's master seed.  ``None`` (or an
        empty spec) leaves the healthy event stream byte-identical.
    policy:
        The control plane to run: a registered policy name
        (``"lass"`` — the default — ``"openwhisk"``, ``"reactive"``,
        ``"static"``, ``"hybrid"``, ``"noop"``, or anything third-party
        code registered) or a callable ``factory(context) ->
        ControlPolicy`` for ad-hoc policies.  Every policy sees the same
        workloads, cluster, seed, and fault schedule.
    policy_params:
        Policy-specific configuration forwarded to the registered
        factory (e.g. ``{"allocations": {...}}`` for ``"static"``).
        LaSS takes none — it is configured through ``controller_config``.
    data_plane:
        ``"event"`` (the default, and the oracle) executes every request
        through per-request engine events; ``"columnar"`` runs the
        vectorized kernel (:mod:`repro.sim.columnar`) when the policy
        supports it, falling back to the event plane otherwise.  Both
        planes produce byte-identical results (the differential test
        suite enforces it).
    """

    def __init__(
        self,
        workloads: Sequence[WorkloadBinding],
        cluster_config: Optional[ClusterConfig] = None,
        controller_config: Optional[ControllerConfig] = None,
        scheduling_tree: Optional[SchedulingTree] = None,
        seed: int = 1,
        warm_start_containers: Optional[Mapping[str, int]] = None,
        arrival_batch_size: int = 256,
        fault_spec: Optional["FaultSpec"] = None,
        policy: PolicyChoice = "lass",
        policy_params: Optional[Mapping[str, Any]] = None,
        data_plane: str = "event",
    ) -> None:
        """Build the cluster, policy, arrival generators and fault injector (see the class docstring)."""
        super().__init__(workloads, seed, warm_start_containers)
        if data_plane not in ("event", "columnar"):
            raise ValueError(
                f"unknown data_plane {data_plane!r}; valid: 'event', 'columnar'"
            )
        self.data_plane = data_plane
        self.cluster = EdgeCluster(self.engine, cluster_config or ClusterConfig())
        self.metrics = MetricsCollector()
        self.policy = self._deploy_policy(self.cluster, self.metrics, controller_config,
                                          policy, policy_params, scheduling_tree)
        self._make_generators(self.policy.dispatch, arrival_batch_size)

        self.fault_injector: Optional[FaultInjector] = None
        if fault_spec is not None and not fault_spec.is_empty():
            self.fault_injector = FaultInjector(
                engine=self.engine,
                cluster=self.cluster,
                controller=self.policy,
                metrics=self.metrics,
                rng=self.rng,
                spec=fault_spec,
            )

    def _warm_cluster(self, function_name: str) -> EdgeCluster:
        """Warm-start containers go on the run's only cluster."""
        return self.cluster

    def _start(self) -> None:
        """Start the control loop."""
        self.policy.start()

    def _kernel(self) -> Any:
        """The columnar kernel when that plane was asked for and the policy has a plan."""
        if self.data_plane != "columnar":
            return None
        from repro.sim.columnar import build_kernel

        return build_kernel(self.engine, self.cluster, self.policy, self.generators)

    def run(self, duration: float, extra_drain: float = 5.0) -> SimulationResult:
        """Run the simulation for ``duration`` seconds of workload.

        ``extra_drain`` extends the event loop past the workload horizon so
        in-flight requests can complete and be counted.
        """
        generated = self._drive(duration, extra_drain)
        return SimulationResult(
            metrics=self.metrics,
            cluster=self.cluster,
            controller=self.policy,
            duration=duration,
            generated_requests=generated,
        )


__all__ = ["RunAssembly", "SimulationRunner", "SimulationResult"]
