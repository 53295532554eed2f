"""End-to-end benchmark of the LaSS simulator: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 lassbench/run.py --workload overload-reclaim --seed 1 --seconds 25 --trace 0

Each repetition runs in a fresh process (``lb_child.py``), so set-up time
and peak memory are per repetition and no process-global state carries
from one repetition to the next.  Repetitions run one after another
until ``--seconds`` have passed (at least two), every metric is the
median over repetitions, and the last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts operations (simulated arms or replay shards) over
all repetitions; an operation fails when its output check fails, when
its repetition crashed, or when its results bytes hash differently from
the first repetition's (every repetition of one seed must be
byte-identical).

``--trace 0`` reports the end-to-end metrics:

* ``requests_per_s``: simulated arrivals (replayed invocations for
  ``trace-replay``) per host second of the timed part, summed over arms.
* ``replay_fn_minutes_per_s``: functions × minutes simulated or replayed
  per host second of the timed part.
* ``setup_s``: process start to the first timed call (imports, specs).
* ``peak_rss_mb``: peak resident memory of the repetition's process.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``lb_trace.py``), the
simulated outcome of the run, and ``trace_overhead_ratio`` (traced ÷
untraced timed seconds).  The outcome metrics are deterministic for a
seed; they are 0 on workloads that do not produce them (the replay
simulates no requests, the simulations replay no trace):

* ``sim_p95_wait_ms``: the worst arm's and function's P95 waiting time.
* ``sim_slo_miss_ratio``: 1 − Σ within deadline / Σ total over the
  envelopes' ``slo`` groups (dropped, failed, unfinished count as misses).
* ``sim_failed_ratio``: (dropped + failed + unfinished) / arrivals.
* ``replay_overload_minute_ratio``: overload minutes / function-minutes.

Every run prints a table of its metrics, by name with unit, before the
JSON line.  Seeds: the default is 1; a performance claim measured on it
must also hold on the held-out seed 7919.  Spans of the last traced
repetition are written to ``.lassbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".lassbench_out")

DEFAULT_SEED = 1
WORKLOADS = ("steady-columnar", "overload-reclaim", "federated-failover", "trace-replay")
MIN_REPETITIONS = 2
#: No repetition may start if the previous one would end it past this
#: many seconds; a running repetition is killed at ``KILL_AFTER_S``.
HARD_LIMIT_S = 120.0
KILL_AFTER_S = 170.0

END_TO_END = {
    "requests_per_s": "1/s",
    "replay_fn_minutes_per_s": "fn-min/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

OUTCOME = {
    "sim_p95_wait_ms": "ms",
    "sim_slo_miss_ratio": "ratio",
    "sim_failed_ratio": "ratio",
    "replay_overload_minute_ratio": "ratio",
}

PER_LAYER = {
    "columnar.self_s": "s",
    "columnar.requests": "count",
    "metrics.summary_s": "s",
    "metrics.record_s": "s",
    "engine.self_s": "s",
    "engine.events": "count",
    "engine.events_cancelled": "count",
    "dispatch.submits": "count",
    "dispatch.self_s": "s",
    "dispatch.queued_ratio": "ratio",
    "dispatch.drains": "count",
    "controller.epochs": "count",
    "controller.epoch_ms.p50": "ms",
    "controller.epoch_ms.tail": "ms",
    "controller.epoch_ms.tail_q": "quantile",
    "controller.self_s": "s",
    "controller.dispatch_self_s": "s",
    "solver.queries": "count",
    "solver.self_s": "s",
    "solver.cache_hit_ratio": "ratio",
    "solver.warm_hit_ratio": "ratio",
    "cluster.creations": "count",
    "cluster.terminations": "count",
    "cluster.deflations": "count",
    "cluster.inflations": "count",
    "cluster.self_s": "s",
    "reclaim.plan_s": "s",
    "federation.route_calls": "count",
    "federation.route_self_s": "s",
    "federation.redirect_ratio": "ratio",
    "federation.probes": "count",
    "workloads.arrivals": "count",
    "workloads.gen_s": "s",
    "workloads.stream_chunk_s": "s",
    "scenarios.envelope_s": "s",
    "scenarios.serialize_s": "s",
    "sweep.journal_s": "s",
    "replay.merge_s": "s",
    "replay.shard_s.p50": "s",
    "replay.shard_s.max": "s",
    **OUTCOME,
    "trace_overhead_ratio": "ratio",
}


def run_repetition(workload: str, seed: int, traced: bool, timeout: float) -> Dict[str, Any]:
    """Run one repetition in a fresh process (killed after ``timeout`` seconds)."""
    child = os.path.join(HERE, "lb_child.py")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, child, "--workload", workload, "--seed", str(seed),
             "--t0", repr(t0), "--trace", "1" if traced else "0", "--out", OUT_DIR],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"repetition killed after {timeout:.0f} s", file=sys.stderr)
        return {"crashed": True, "traced": traced, "wall_s": time.monotonic() - t0}
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return {"crashed": True, "traced": traced, "wall_s": wall}
    report = json.loads(lines[-1])
    report.update(traced=traced, wall_s=wall, crashed=False)
    return report


def summarize(workload: str, reps: List[Dict[str, Any]], trace: bool) -> Dict[str, Any]:
    """Fold the repetitions into the result line (medians, checks, counts)."""
    reference = next((r["digest"] for r in reps if not r["crashed"]), None)
    attempted = failed = 0
    ops_per_rep = max((r["operations"] for r in reps if not r["crashed"]), default=1)
    for index, rep in enumerate(reps):
        if rep["crashed"]:
            attempted += ops_per_rep
            failed += ops_per_rep
            print(f"repetition {index}: crashed", file=sys.stderr)
            continue
        attempted += rep["operations"]
        if rep["digest"] != reference:
            failed += rep["operations"]
            print(f"repetition {index}: results bytes differ from repetition 0",
                  file=sys.stderr)
            continue
        failed += rep["failed_operations"]
        for message in rep["failures"]:
            print(f"repetition {index}: check failed: {message}", file=sys.stderr)

    ok = [r for r in reps if not r["crashed"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    values: Dict[str, float] = {}
    if trace:
        for name in PER_LAYER:
            if name in OUTCOME:
                samples = [r["outcome"][name] for r in traced]
            elif name == "trace_overhead_ratio":
                samples = ([statistics.median(r["timed_s"] for r in traced)
                            / statistics.median(r["timed_s"] for r in plain)]
                           if plain and traced else [])
            else:
                samples = [r["layers"][name] for r in traced]
            if samples:
                values[name] = float(statistics.median(samples))
        units = PER_LAYER
    elif plain:
        values = {
            "requests_per_s": statistics.median(r["arrivals"] / r["timed_s"] for r in plain),
            "replay_fn_minutes_per_s":
                statistics.median(r["fn_minutes"] / r["timed_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END

    _print_table(workload, reps, values, units if values else {}, show_outcome=not trace)
    complete = bool(values) and len(values) == len(units)
    return {
        "correct": failed == 0 and complete,
        "attempted": max(attempted, 1),
        "failed": failed if complete else max(failed, 1),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }


def _print_table(workload: str, reps: List[Dict[str, Any]], values: Dict[str, float],
                 units: Dict[str, str], show_outcome: bool) -> None:
    """Every metric by name with its unit, plus the outcome and layer shares."""
    ok = [r for r in reps if not r["crashed"]]
    print(f"# {workload}: {len(reps)} repetitions "
          f"({sum(r['traced'] for r in reps)} traced)")
    for name, unit in units.items():
        if name in values:
            print(f"{name:32s} {values[name]:>16.6g} {unit}")
    if ok and show_outcome:
        for name, unit in OUTCOME.items():
            print(f"{name:32s} {ok[0]['outcome'][name]:>16.6g} {unit}")
    shares = [r["shares"] for r in ok if r["traced"]]
    if shares:
        layers = sorted(shares[0], key=lambda k: -shares[0][k])
        print("# self-time share of the traced timed part: " + ", ".join(
            f"{k} {100 * statistics.median(s.get(k, 0.0) for s in shares):.1f}%"
            for k in layers))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    start = time.monotonic()
    reps: List[Dict[str, Any]] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        remaining = KILL_AFTER_S - (time.monotonic() - start)
        reps.append(run_repetition(args.workload, args.seed, traced, remaining))
        elapsed = time.monotonic() - start
        if (len(reps) >= MIN_REPETITIONS and elapsed >= args.seconds
                or elapsed + reps[-1]["wall_s"] > HARD_LIMIT_S):
            break
    print(json.dumps(summarize(args.workload, reps, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
