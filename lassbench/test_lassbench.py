"""Checks of the benchmark itself, run once outside the timed runs.

* The ``steady-columnar`` ``metrics`` group is byte-identical on the
  columnar and the event data plane, so the columnar workload measures
  the same simulation as the event plane would.
* Span self time is duration minus direct children.
* The replay output check catches a merged total that disagrees with
  its shards.
* ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
  reports, with the same units.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import lb_trace  # noqa: E402
import lb_workloads  # noqa: E402


def _load_cli():
    spec = importlib.util.spec_from_file_location("lassbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_steady_columnar_metrics_equal_event_plane():
    columnar = lb_workloads.metrics_group(1, "columnar")
    event = lb_workloads.metrics_group(1, "event")
    assert columnar == event


def test_self_time_subtracts_direct_children():
    recorder = lb_trace.SpanRecorder()
    leaf = recorder.timed(lambda: time.sleep(0.02), "t.leaf")

    def body():
        time.sleep(0.01)
        leaf()

    middle = recorder.timed(body, "t.middle")
    recorder.enabled = True
    middle()
    recorder.enabled = False
    middle()  # not recorded
    totals = recorder.totals()
    assert totals["t.middle"]["calls"] == 1 and totals["t.leaf"]["calls"] == 1
    assert abs(totals["t.middle"]["total_s"]
               - totals["t.middle"]["self_s"] - totals["t.leaf"]["total_s"]) < 1e-9
    assert 0.009 <= totals["t.middle"]["self_s"] < totals["t.middle"]["total_s"] - 0.019
    assert totals["t.leaf"]["self_s"] == totals["t.leaf"]["total_s"] >= 0.02


def test_replay_check_catches_a_wrong_merged_total(tmp_path):
    from repro.scenarios import ResilientSweepRunner, build, merge_trace_shards

    sweep = build("fig9-at-scale", functions=12, duration_minutes=30, shards=3,
                  chunk_minutes=10, seed=3)
    envelope = ResilientSweepRunner(sweep, workers=1,
                                    journal=str(tmp_path / "journal.jsonl")).run()
    merged = merge_trace_shards(envelope)
    assert lb_workloads.check_replay(envelope, merged, 3) == []
    merged["totals"]["invocations"] += 1
    assert any("invocations" in e for e in lb_workloads.check_replay(envelope, merged, 3))
    assert lb_workloads.check_replay(dict(envelope, incomplete=True), merged, 3)


def test_benchmark_json_matches_the_cli():
    cli = _load_cli()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(cli.WORKLOADS)
    assert list(cli.WORKLOADS) == list(lb_workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == cli.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == cli.PER_LAYER
