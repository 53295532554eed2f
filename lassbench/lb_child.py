"""One repetition of one workload, in a fresh process; prints one JSON line.

Started by ``run.py``, which passes ``--t0``: its ``time.monotonic()``
reading just before it started this process, so set-up time covers the
interpreter start, the imports and building the specs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for spans and the journal")
    args = parser.parse_args()

    from lb_workloads import Workload

    recorder = None
    if args.trace:
        import lb_trace

        recorder = lb_trace.SpanRecorder()
    first_timed = []

    def on_timed(active: bool) -> None:
        if active and not first_timed:
            first_timed.append(time.monotonic() - args.t0)
        if recorder is not None:
            recorder.enabled = active

    workload = Workload(args.workload, args.seed, args.out, on_timed)
    if recorder is not None:
        lb_trace.install(recorder)
    result = workload.run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "setup_s": first_timed[0],
        "timed_s": result.timed_s,
        "peak_rss_mb": peak_rss_mb,
        "operations": result.operations,
        "failed_operations": result.failed_operations,
        "failures": result.failures,
        "arrivals": result.arrivals,
        "fn_minutes": result.fn_minutes,
        "digest": result.digest,
        "outcome": result.outcome,
    }
    if recorder is not None:
        spans = recorder.totals()
        report["layers"] = lb_trace.layer_metrics(recorder, spans, result.envelopes)
        report["shares"] = lb_trace.layer_shares(spans, result.timed_s)
        recorder.save(os.path.join(args.out, f"spans-{args.workload}.npz"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
