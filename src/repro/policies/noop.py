"""The no-op policy: LaSS's data path with the control loop removed.

:class:`NoOpPolicy` is exactly the shared-queue WRR data path (dispatch
to an idle container, FCFS queue otherwise, drain on warm-up/completion)
with *no* scaling of any kind — containers are whatever the run created
(``warm_start`` prewarming, or explicit ``create_container`` calls).
The Figures 3/4 model-validation atom (``kind="fixed"`` scenarios) runs
on it: a :class:`~repro.simulation.SimulationRunner` prewarms the fixed
fleet, optionally deflates it, and the policy never schedules a control
event.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cluster.cluster import EdgeCluster
from repro.cluster.container import Container
from repro.core.dispatch import SharedQueueDispatcher
from repro.core.policy import ControlPolicy, PolicyContext, register_policy
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request


class NoOpPolicy(ControlPolicy):
    """Pure dispatch over a fixed fleet: no control loop, no scaling."""

    name = "noop"

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: EdgeCluster,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        """Attach the shared-queue data path to the cluster."""
        self.engine = engine
        self.cluster = cluster
        self.metrics = metrics or MetricsCollector()
        self.dispatcher = SharedQueueDispatcher(engine, on_complete=self._on_request_complete)
        self.dispatcher.attach_cluster(cluster)
        cluster.on_container_warm(self._on_container_warm)

    def start(self) -> None:
        """Nothing to start: the policy schedules no control events."""

    def dispatch(self, request: Request) -> None:
        """Record the arrival and hand it to the shared-queue dispatcher."""
        self.metrics.record_request(request)
        self.dispatcher.submit(request)

    def _on_container_warm(self, container: Container) -> None:
        """A container finished cold start: drain its function's queue onto it."""
        self.dispatcher.drain(container.function_name)

    def _on_request_complete(self, request: Request, container: Container) -> None:
        """Completion callback: record the completion in the metrics."""
        self.metrics.record_completion(request)

    def columnar_plan(self):
        """Pure dispatch + metrics: the minimal columnar plan."""
        from repro.sim.columnar import ColumnarPlan

        return ColumnarPlan(dispatcher=self.dispatcher, collector=self.metrics)


def _no_params(params) -> None:
    """Eager params check: the no-op policy is parameterless."""
    if params:
        raise ValueError(f"policy 'noop' takes no policy_params; got {sorted(params)}")


@register_policy(
    "noop",
    "no control loop: WRR dispatch over whatever containers exist",
    validate_params=_no_params,
)
def _build_noop(context: PolicyContext, params: Dict[str, Any]) -> NoOpPolicy:
    """Registry factory for the no-op policy (takes no params)."""
    _no_params(params)
    return NoOpPolicy(engine=context.engine, cluster=context.cluster,
                      metrics=context.metrics)


__all__ = ["NoOpPolicy"]
