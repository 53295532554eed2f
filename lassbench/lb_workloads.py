"""The four benchmark workloads, their output checks and their outcome metrics.

Every workload is built from a registered paper scenario (or, for
``steady-columnar``, from a spec written here) and runs in-process
through the public entry points: :func:`repro.scenarios.run_scenario`
for the simulated arms, and :class:`repro.scenarios.ResilientSweepRunner`
plus :func:`repro.scenarios.merge_trace_shards` for the trace replay.
The ``seed`` argument is the only source of randomness; the program
receives the specs built from it and nothing else.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List

import repro.scenarios.runner as scenario_runner
import repro.scenarios.spec as scenario_spec
import repro.scenarios.trace_shard as trace_shard
from repro.scenarios import (
    ClusterSpec,
    ResilientSweepRunner,
    ScenarioSpec,
    ScheduleSpec,
    WorkloadSpec,
    build,
)
from repro.sim.request import RequestStatus

#: Steady Poisson rate (req/s) of every catalogue function in ``steady-columnar``.
STEADY_RATES = {
    "binaryalert": 60.0,
    "geofence": 150.0,
    "image-resizer": 40.0,
    "microbenchmark": 57.0,
    "mobilenet": 10.0,
    "shufflenet": 20.0,
    "squeezenet": 30.0,
}

#: ``fig9-at-scale`` size for ``trace-replay``: the synthetic population is
#: part of the workload definition (fixed), the trace randomness follows the seed.
REPLAY_SIZE = {"functions": 2000, "duration_minutes": 720, "shards": 8,
               "population_seed": 2021}

WORKLOADS = ("steady-columnar", "overload-reclaim", "federated-failover", "trace-replay")

_UNFINISHED = (RequestStatus.PENDING, RequestStatus.QUEUED, RequestStatus.RUNNING)
_DROPPED = (RequestStatus.DROPPED, RequestStatus.TIMED_OUT)


def steady_columnar_spec(seed: int, data_plane: str = "columnar") -> ScenarioSpec:
    """All catalogue functions at steady rates on an 8×8-vCPU cluster under LaSS."""
    duration = 300.0
    return ScenarioSpec(
        name="steady-columnar",
        kind="simulate",
        description="Every catalogue function at a steady Poisson rate",
        workloads=tuple(
            WorkloadSpec(function=name,
                         schedule=ScheduleSpec.static(rate=rate, duration=duration),
                         slo_deadline=0.1)
            for name, rate in sorted(STEADY_RATES.items())
        ),
        cluster=ClusterSpec(node_count=8, cpu_per_node=8.0),
        duration=duration,
        warmup=30.0,
        seed=seed,
        warm_start={name: 2 for name in STEADY_RATES},
        data_plane=data_plane,
        metrics=("waiting", "slo", "utilization", "counters", "generated"),
    )


def replay_sweep(seed: int):
    """The ``fig9-at-scale`` sweep at benchmark size; the seed drives the traces."""
    return build("fig9-at-scale", functions=REPLAY_SIZE["functions"],
                 duration_minutes=REPLAY_SIZE["duration_minutes"],
                 shards=REPLAY_SIZE["shards"], seed=seed, trace_seed=seed,
                 population_seed=REPLAY_SIZE["population_seed"])


def arm_specs(workload: str, seed: int) -> List[ScenarioSpec]:
    """The simulated arms of a workload, in run order."""
    if workload == "steady-columnar":
        return [steady_columnar_spec(seed)]
    if workload == "overload-reclaim":
        return build("fig8", seed=seed, include_openwhisk=False).expand()
    if workload == "federated-failover":
        return build("fig12", seed=seed).expand()
    raise ValueError(f"unknown simulate workload {workload!r}")


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """What one repetition of a workload measured and checked."""

    timed_s: float = 0.0
    operations: int = 0
    failed_operations: int = 0
    failures: List[str] = field(default_factory=list)
    arrivals: int = 0
    fn_minutes: float = 0.0
    digest: str = ""
    outcome: Dict[str, float] = field(default_factory=dict)
    envelopes: List[Dict[str, Any]] = field(default_factory=list)


class Workload:
    """Build a workload's inputs from the seed (set-up), then run them (timed).

    ``on_timed`` is called with ``True`` when a timed section starts and
    ``False`` when it ends, so a tracer records only timed work.
    """

    def __init__(self, name: str, seed: int, work_dir: str,
                 on_timed: Callable[[bool], None] = lambda active: None) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.work_dir = work_dir
        self.on_timed = on_timed
        if name == "trace-replay":
            self.sweep = replay_sweep(seed)
            self.specs: List[ScenarioSpec] = []
        else:
            self.specs = arm_specs(name, seed)

    def run(self) -> RunResult:
        """Run every arm (or the replay), checking each one's output."""
        if self.name == "trace-replay":
            return self._run_replay()
        return self._run_simulate()

    def _timed(self, call: Callable[[], Any]) -> tuple:
        self.on_timed(True)
        start = perf_counter()
        try:
            return call(), perf_counter() - start
        finally:
            self.on_timed(False)

    def _run_simulate(self) -> RunResult:
        result = RunResult()
        digest = hashlib.sha256()
        totals: Counter = Counter()
        worst_p95 = 0.0
        for spec in self.specs:
            def arm(spec=spec):
                outcome = scenario_runner.run_scenario(spec)
                return outcome, scenario_spec.canonical_json(outcome.data)
            (outcome, text), seconds = self._timed(arm)
            result.timed_s += seconds
            result.operations += 1
            digest.update(text.encode())
            result.envelopes.append(outcome.data)
            functions = outcome.data["metrics"]["functions"]
            result.arrivals += sum(f["generated"] for f in functions.values())
            result.fn_minutes += len(functions) * spec.duration / 60.0
            errors, tally = check_arm(outcome)
            result.failed_operations += bool(errors)
            result.failures.extend(f"{spec.name}: {e}" for e in errors)
            totals.update(tally)
            for report in functions.values():
                worst_p95 = max(worst_p95, report["waiting"]["p95"])
                totals["slo_total"] += report["slo"]["total"]
                totals["slo_within"] += report["slo"]["within_deadline"]
            del outcome  # free this arm's request objects before the next arm
        result.digest = digest.hexdigest()
        result.outcome = {
            "sim_p95_wait_ms": worst_p95 * 1e3,
            "sim_slo_miss_ratio": 1.0 - totals["slo_within"] / totals["slo_total"],
            "sim_failed_ratio": totals["not_completed"] / totals["arrivals"],
            "replay_overload_minute_ratio": 0.0,
        }
        return result

    def _run_replay(self) -> RunResult:
        result = RunResult()
        journal = os.path.join(self.work_dir, f"journal-{os.getpid()}.jsonl")
        if os.path.exists(journal):
            os.remove(journal)

        def replay():
            envelope = ResilientSweepRunner(self.sweep, workers=1, journal=journal).run()
            merged = trace_shard.merge_trace_shards(envelope)
            return envelope, merged, scenario_spec.canonical_json(merged)

        try:
            (envelope, merged, text), result.timed_s = self._timed(replay)
        finally:
            if os.path.exists(journal):
                os.remove(journal)
        result.operations = len(envelope["results"])
        result.failures = check_replay(envelope, merged, self.sweep.shard_count())
        # the checks cover the merged whole, so a failure fails every shard
        result.failed_operations = result.operations if result.failures else 0
        result.digest = hashlib.sha256(text.encode()).hexdigest()
        result.envelopes = envelope["results"]
        totals = merged["totals"]
        result.arrivals = totals["invocations"]
        result.fn_minutes = float(totals["functions"] * merged["minutes"])
        result.outcome = {
            "sim_p95_wait_ms": 0.0,
            "sim_slo_miss_ratio": 0.0,
            "sim_failed_ratio": 0.0,
            "replay_overload_minute_ratio":
                totals["overload_minutes"] / result.fn_minutes,
        }
        return result


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_arm(outcome) -> tuple:
    """Conservation checks of one simulated arm; returns (errors, tallies).

    Per function: every generated arrival is recorded exactly once, as
    completed, dropped/failed, or unfinished (still queued or running).
    Across functions: the collector's counters agree with the records.
    """
    data = outcome.data
    functions = data["metrics"]["functions"]
    counters = data["metrics"].get("counters", {})
    status = Counter((r.function_name, r.status) for r in outcome.sim.metrics.requests)
    errors: List[str] = []
    tally: Counter = Counter()
    for name, report in functions.items():
        completed = status[(name, RequestStatus.COMPLETED)]
        dropped = sum(status[(name, s)] for s in _DROPPED)
        unfinished = sum(status[(name, s)] for s in _UNFINISHED)
        arrivals = report["generated"]
        if arrivals != completed + dropped + unfinished:
            errors.append(f"{name}: arrivals {arrivals} != completed {completed} "
                          f"+ dropped/failed {dropped} + unfinished {unfinished}")
        tally["arrivals"] += arrivals
        tally["completed"] += completed
        tally["not_completed"] += dropped + unfinished
    if counters.get("arrivals", 0) != tally["arrivals"]:
        errors.append(f"counter arrivals {counters.get('arrivals', 0)} "
                      f"!= generated {tally['arrivals']}")
    if counters.get("completions", 0) != tally["completed"]:
        errors.append(f"counter completions {counters.get('completions', 0)} "
                      f"!= completed records {tally['completed']}")
    return errors, tally


def check_replay(envelope: Dict[str, Any], merged: Dict[str, Any],
                 shards: int) -> List[str]:
    """The sweep is complete and the merged totals equal the sum over shards."""
    errors: List[str] = []
    if envelope.get("incomplete"):
        errors.append("sweep envelope is incomplete")
    results = envelope["results"]
    if len(results) != shards:
        errors.append(f"{len(results)} shard results, expected {shards}")
    for doc in results:
        if doc.get("status", "ok") != "ok":
            errors.append(f"shard {doc.get('scenario', {}).get('name')} "
                          f"status {doc.get('status')}")
    totals = merged["totals"]
    for key in ("functions", "sporadic_functions", "invocations", "zero_minutes",
                "overload_minutes", "containers"):
        summed = sum(int(doc["replay"][key]) for doc in results if "replay" in doc)
        if summed != totals[key]:
            errors.append(f"merged {key} {totals[key]} != shard sum {summed}")
    peak = max((int(doc["replay"]["peak_per_minute"]) for doc in results
                if "replay" in doc), default=0)
    if peak != totals["peak_per_minute"]:
        errors.append(f"merged peak_per_minute {totals['peak_per_minute']} != {peak}")
    return errors


def metrics_group(seed: int, data_plane: str) -> str:
    """``canonical_json`` of the ``steady-columnar`` metrics group on one plane."""
    outcome = scenario_runner.run_scenario(steady_columnar_spec(seed, data_plane))
    return scenario_spec.canonical_json(outcome.data["metrics"])


__all__ = ["STEADY_RATES", "WORKLOADS", "RunResult", "Workload",
           "check_arm", "check_replay", "metrics_group", "steady_columnar_spec"]
