"""In-memory span recorder that attributes one benchmark run to LaSS layers.

The recorder wraps public functions and methods of each layer from the
outside (nothing under ``src/`` is edited): every wrapped call appends
one span — name, start, end, parent — to flat arrays held in memory, and
:meth:`SpanRecorder.save` writes them out once the run has ended.  A
span's *self time* is its duration minus the durations of its direct
children, so a layer's self time is the host time spent in its own code,
excluding the other layers it calls.

:func:`install` is the table of wrapped entry points; :func:`layer_metrics`
turns the recorded spans plus the run's result envelopes into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np


class SpanRecorder:
    """Flat, append-only span storage plus named counters.

    Recording is off until :attr:`enabled` is set, so a run can wrap its
    layers once and trace only the timed part.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.enabled = False
        self._stack: List[int] = []

    # -- recording ---------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def _exit(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def timed(self, original: Callable, span: str,
               after: Optional[Callable] = None) -> Callable:
        """A wrapper recording one ``span`` per call of ``original``."""
        name_id = self._id(span)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return original(*args, **kwargs)
            index = recorder._enter(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._exit(index)
            if after is not None:
                after(recorder.counts, args, result)
            return result

        return wrapper

    def _timed_iter(self, original: Callable, span: str) -> Callable:
        """A wrapper for a generator function: one span per ``next``."""
        name_id = self._id(span)
        recorder = self

        def iterate(iterator):
            while True:
                if not recorder.enabled:
                    item = next(iterator, _DONE)
                else:
                    index = recorder._enter(name_id)
                    try:
                        item = next(iterator, _DONE)
                    finally:
                        recorder._exit(index)
                if item is _DONE:
                    return
                yield item

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return iterate(iter(original(*args, **kwargs)))

        return wrapper

    # -- patching ----------------------------------------------------------
    def wrap_method(self, cls: type, attr: str, span: str,
                    after: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it."""
        setattr(cls, attr, self.timed(cls.__dict__[attr], span, after))

    def wrap_function(self, module: Any, attr: str, span: str,
                      iterator: bool = False) -> None:
        """Wrap a module-level function and every ``repro`` alias of it.

        Modules that did ``from x import f`` hold their own reference, so
        each loaded ``repro`` module is searched for the original object.
        """
        original = getattr(module, attr)
        wrapper = (self._timed_iter(original, span) if iterator
                   else self.timed(original, span))
        for name, loaded in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)

    # -- analysis ----------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: call count, inclusive seconds, self seconds, durations."""
        n = len(self.start)
        names = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        duration = (np.frombuffer(self.end, dtype=np.float64)[:n]
                    - np.frombuffer(self.start, dtype=np.float64)[:n])
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=n) if n else np.zeros(0)
        own = duration - child
        out: Dict[str, Dict[str, Any]] = {}
        for index, name in enumerate(self.names):
            mask = names == index
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
                "durations": duration[mask],
            }
        return out

    def save(self, path: str) -> None:
        """Write every span (name table, parent, start, end) to ``path`` (.npz)."""
        n = len(self.start)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32)[:n],
            parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
            start=np.frombuffer(self.start, dtype=np.float64)[:n],
            end=np.frombuffer(self.end, dtype=np.float64)[:n],
        )


_DONE = object()


# ----------------------------------------------------------------------
# Counters read from live objects at span exit
# ----------------------------------------------------------------------
def _delta_counter(fields: Mapping[str, Callable[[Any], int]]) -> Callable:
    """An ``after`` hook adding each field's growth since the object's last call.

    Keyed weakly by the object (an engine or a solver), so a finished
    run's objects are not kept alive by the recorder.
    """
    seen: "weakref.WeakKeyDictionary[Any, Dict[str, int]]" = weakref.WeakKeyDictionary()

    def after(counts: Counter, args: Sequence[Any], result: Any) -> None:
        obj = args[0]
        last = seen.get(obj) or {}
        now = {key: read(obj) for key, read in fields.items()}
        for key, value in now.items():
            counts[key] += value - last.get(key, 0)
        seen[obj] = now

    return after


def _count_queued(counts: Counter, args: Sequence[Any], result: Any) -> None:
    """``SharedQueueDispatcher.submit`` returned False: the request queued."""
    if result is False:
        counts["dispatch.queued"] += 1


def install(recorder: SpanRecorder) -> None:
    """Wrap the entry points of every layer (the module names are the layers)."""
    from repro.cluster.cluster import EdgeCluster
    from repro.cluster.container import Container
    from repro.core.allocation.reclamation import DeflationPolicy, TerminationPolicy
    from repro.core.dispatch import SharedQueueDispatcher
    from repro.core.policy import ControlPolicy
    from repro.core.queueing.solver import SizingSolver
    from repro.federation.health import SiteHealthMonitor
    from repro.federation.router import GlobalRouterPolicy
    from repro.federation.runner import FederatedSimulationRunner
    from repro.metrics.collector import MetricsCollector
    from repro.scenarios import journal, runner, spec, trace_shard
    from repro.sim.columnar import ColumnarKernel
    from repro.sim.engine import SimulationEngine
    from repro.simulation import SimulationRunner
    from repro.workloads import generator, stream
    from repro.workloads.functions import FunctionProfile
    import repro.federation.routers  # noqa: F401  (registers the routers)
    import repro.policies  # noqa: F401  (registers every control policy)

    wrap = recorder.wrap_method
    engine_events = _delta_counter({
        "engine.events": lambda e: e.events_processed,
        "engine.events_cancelled": lambda e: e.events_cancelled,
    })
    wrap(SimulationEngine, "run", "engine.run", engine_events)
    wrap(SimulationEngine, "step", "engine.run", engine_events)

    wrap(ColumnarKernel, "__init__", "columnar.kernel")
    wrap(ColumnarKernel, "run", "columnar.kernel")

    for attr in ("waiting_summary", "slo"):
        wrap(MetricsCollector, attr, "metrics.summary")
    for attr in ("record_request", "record_completion", "fold_arrivals",
                 "fold_completion", "fold_completions_bulk", "record_drop",
                 "record_epoch", "increment"):
        wrap(MetricsCollector, attr, "metrics.record")

    wrap(SharedQueueDispatcher, "submit", "dispatch.submit", _count_queued)
    wrap(SharedQueueDispatcher, "drain", "dispatch.drain")
    wrap(SharedQueueDispatcher, "requeue", "dispatch.drain")

    for policy in _subclasses(ControlPolicy):
        for attr, span in (("run_epoch", "controller.epoch"),
                           ("dispatch", "controller.dispatch")):
            if _overrides(policy, attr):
                wrap(policy, attr, span)

    solver_stats = _delta_counter({
        "solver.queries": lambda s: s.stats.solves,
        "solver.cache_hits": lambda s: s.stats.cache_hits,
        "solver.warm_hits": lambda s: s.stats.warm_hits,
    })
    for attr in ("solve", "solve_batch", "solve_heterogeneous"):
        wrap(SizingSolver, attr, "solver.solve", solver_stats)

    for attr in ("create_container", "terminate_container", "evict_container",
                 "deflate_container", "inflate_container", "fail_node",
                 "recover_node"):
        wrap(EdgeCluster, attr, "cluster.op")
    wrap(Container, "submit", "cluster.op")
    wrap(Container, "_finish_current", "cluster.op")
    wrap(TerminationPolicy, "plan", "reclaim.plan")
    wrap(DeflationPolicy, "plan", "reclaim.plan")

    for router in _subclasses(GlobalRouterPolicy):
        if _overrides(router, "choose_site"):
            wrap(router, "choose_site", "federation.route")
    wrap(SiteHealthMonitor, "_probe", "federation.probe")

    wrap(generator._ThinningSampler, "next_arrivals", "workloads.gen")
    wrap(generator.ArrivalGenerator, "materialize_arrivals", "workloads.gen")
    wrap(generator.ArrivalGenerator, "_emit", "workloads.gen")
    wrap(FunctionProfile, "sample_work_many", "workloads.gen")
    recorder.wrap_function(stream, "population_function", "workloads.gen")
    recorder.wrap_function(stream, "iter_azure_trace_chunks",
                           "workloads.stream_chunk", iterator=True)

    recorder.wrap_function(runner, "run_scenario", "scenarios.run_scenario")
    wrap(SimulationRunner, "run", "scenarios.runner_run")
    wrap(FederatedSimulationRunner, "run", "scenarios.runner_run")
    recorder.wrap_function(trace_shard, "run_trace_replay", "replay.shard")
    recorder.wrap_function(spec, "canonical_json", "scenarios.serialize")
    wrap(journal.RunJournal, "append", "sweep.journal")
    recorder.wrap_function(trace_shard, "merge_trace_shards", "replay.merge")


def _overrides(cls: type, attr: str) -> bool:
    """Whether ``cls`` itself defines a concrete ``attr``."""
    method = cls.__dict__.get(attr)
    return method is not None and not getattr(method, "__isabstractmethod__", False)


def _subclasses(cls: type) -> List[type]:
    """``cls`` and every subclass defined so far, depth first."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------
def tail_quantile(samples: int) -> float:
    """Highest of p99/p90/p75/p50 with at least ten samples above it."""
    for q in (0.99, 0.9, 0.75, 0.5):
        if samples * (1.0 - q) >= 10:
            return q
    return 0.5


def layer_metrics(recorder: SpanRecorder, spans: Mapping[str, Dict[str, Any]],
                  envelopes: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``envelopes`` are the run's result documents (one per simulated arm,
    or the shard results of a replay): simulated counts such as container
    creations are read from them, host times from ``spans``
    (:meth:`SpanRecorder.totals`).
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": np.zeros(0)}

    def get(name: str) -> Dict[str, Any]:
        return spans.get(name, empty)

    counters: Counter = Counter()
    columnar_requests = 0
    arrivals = 0
    routed = redirects = probes = 0
    for doc in envelopes:
        metrics = doc.get("metrics", {})
        counters.update(metrics.get("counters", {}))
        generated = sum(f.get("generated", 0)
                        for f in metrics.get("functions", {}).values())
        arrivals += generated
        if doc.get("scenario", {}).get("data_plane") == "columnar":
            columnar_requests += generated
        federation = doc.get("federation")
        if federation is not None:
            router = federation["router"]
            routed += sum(router["dispatched"].values())
            redirects += router["redirects"]
            probes += federation["health"]["probes_sent"]

    counts = recorder.counts
    submits = get("dispatch.submit")["calls"]
    queries = counts["solver.queries"]
    epochs = get("controller.epoch")["durations"] * 1e3
    q = tail_quantile(len(epochs))
    shards = get("replay.shard")["durations"]
    envelope_s = (get("scenarios.run_scenario")["total_s"]
                  - get("scenarios.runner_run")["total_s"]
                  - get("replay.shard")["total_s"])

    return {
        "columnar.self_s": get("columnar.kernel")["self_s"],
        "columnar.requests": columnar_requests,
        "metrics.summary_s": get("metrics.summary")["total_s"],
        "metrics.record_s": get("metrics.record")["self_s"],
        "engine.self_s": get("engine.run")["self_s"],
        "engine.events": counts["engine.events"],
        "engine.events_cancelled": counts["engine.events_cancelled"],
        "dispatch.submits": submits,
        "dispatch.self_s": get("dispatch.submit")["self_s"] + get("dispatch.drain")["self_s"],
        "dispatch.queued_ratio": counts["dispatch.queued"] / submits if submits else 0.0,
        "dispatch.drains": get("dispatch.drain")["calls"],
        "controller.epochs": len(epochs),
        "controller.epoch_ms.p50": float(np.quantile(epochs, 0.5)) if len(epochs) else 0.0,
        "controller.epoch_ms.tail": float(np.quantile(epochs, q)) if len(epochs) else 0.0,
        "controller.epoch_ms.tail_q": q if len(epochs) else 0.0,
        "controller.self_s": get("controller.epoch")["self_s"],
        "controller.dispatch_self_s": get("controller.dispatch")["self_s"],
        "solver.queries": queries,
        "solver.self_s": get("solver.solve")["self_s"],
        "solver.cache_hit_ratio": counts["solver.cache_hits"] / queries if queries else 0.0,
        "solver.warm_hit_ratio": counts["solver.warm_hits"] / queries if queries else 0.0,
        "cluster.creations": counters["creations"],
        "cluster.terminations": counters["terminations"],
        "cluster.deflations": counters["deflations"],
        "cluster.inflations": counters["inflations"],
        "cluster.self_s": get("cluster.op")["self_s"],
        "reclaim.plan_s": get("reclaim.plan")["total_s"],
        "federation.route_calls": get("federation.route")["calls"],
        "federation.route_self_s": get("federation.route")["self_s"],
        "federation.redirect_ratio": redirects / routed if routed else 0.0,
        "federation.probes": probes,
        "workloads.arrivals": arrivals,
        "workloads.gen_s": get("workloads.gen")["self_s"],
        "workloads.stream_chunk_s": get("workloads.stream_chunk")["total_s"],
        "scenarios.envelope_s": envelope_s,
        "scenarios.serialize_s": get("scenarios.serialize")["total_s"],
        "sweep.journal_s": get("sweep.journal")["total_s"],
        "replay.merge_s": get("replay.merge")["total_s"],
        "replay.shard_s.p50": float(np.median(shards)) if len(shards) else 0.0,
        "replay.shard_s.max": float(shards.max()) if len(shards) else 0.0,
    }


def layer_shares(spans: Mapping[str, Dict[str, Any]], timed_s: float) -> Dict[str, float]:
    """Self time per layer (the span-name prefix) as a share of ``timed_s``."""
    shares: Counter = Counter()
    for name, stats in spans.items():
        shares[name.split(".")[0]] += stats["self_s"] / timed_s
    return dict(shares)
