"""One workload run in a fresh process (started by ``run.py``).

Protocol on stdout: the line ``READY`` once set-up is done (the runner
times set-up as process start -> READY), then, unless ``--setup-only``,
one JSON line with the run's metrics, op count and check failures.
Everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

import harness
from workloads import ROOT, WORKLOADS

OUT = os.path.join(ROOT, "bench", "out")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the workload's close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    tracer = None
    if args.trace:
        tracer = harness.Tracer(args.workload)
        harness.install_trace_points(tracer)
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        workload.warm()
        rec = harness.Recorder(args.seconds, tracer)
        rec.start()
        workload.run(rec)
        rec.stop()
        rss = workload.peak_rss()
        chk = harness.Checker(corrupt=args.corrupt)
        workload.check(chk)
        result = {
            "e2e": rec.e2e(rss, concurrent=workload.concurrent),
            "layer": {},
            "attempted": rec.ops,
            "failed": chk.failed,
            "notes": chk.notes,
        }
        if tracer is not None:
            layer = harness.layer_metrics(tracer, rec.busy)
            layer.update(workload.layer_extras(rec))
            result["layer"] = layer
            _write_trace(tracer, rec, args)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


def _write_trace(tracer, rec, args) -> None:
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, args.workload)
    tracer.write_chrome(f"{stem}.trace.json",
                        {"workload": args.workload, "seed": args.seed})
    summary = tracer.summary(rec.busy)
    with open(f"{stem}.layers.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    print(f"{args.workload}: per-layer self time over {rec.busy:.2f} s "
          f"busy ({len(tracer.events)} spans kept)", file=sys.stderr)
    for layer, entry in sorted(summary["layers"].items(),
                               key=lambda kv: -kv[1]["self_ms"]):
        print(f"  {layer:<16} {entry['calls']:>9} calls "
              f"{entry['self_ms']:>11.1f} ms self {entry['share_pct']:>6.1f}%",
              file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
