"""Benchmark regression check: fresh run vs the committed numbers.

Re-runs the benchmark drivers (``benchmarks/bench_engines.py``,
``bench_batched.py``, ``bench_codegen.py``, ``bench_flight.py``,
``bench_timing.py``, ``bench_interchange.py``, ``bench_service.py``) and
compares the fresh cycles/sec against the committed
``BENCH_simulator.json`` with a
tolerance band: a metric that lands more than ``--tolerance`` (default
30%) *below* the committed number is a regression and the script exits
nonzero.  Improvements never fail.

Raw cycles/sec are machine-dependent, so CI runs this as a
*non-blocking* smoke job (the committed numbers come from a developer
machine); the value is the uploaded comparison artifact
(``--report FILE``) and the signal when a change tanks an engine by a
large factor even on slow CI hardware.  Ratio metrics (engine speedups,
flight-recorder overhead) transfer across machines much better and are
compared with the same band.

Usage::

    PYTHONPATH=src python scripts/bench_check.py \
        --cycles 500 --report bench-check.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "benchmarks"))

import bench_batched  # noqa: E402
import bench_codegen  # noqa: E402
import bench_engines  # noqa: E402
import bench_flight  # noqa: E402
import bench_interchange  # noqa: E402
import bench_service  # noqa: E402
import bench_timing  # noqa: E402


def committed_metrics(summary: dict) -> dict[str, float]:
    """Flatten the comparable metrics of a ``zeus.bench.simulator/1``
    summary to ``dotted.path -> number``."""
    out: dict[str, float] = {}
    for name, res in summary.get("workloads", {}).items():
        for engine, rate in res.get("cycles_per_s", {}).items():
            out[f"workloads.{name}.cycles_per_s.{engine}"] = rate
        if "speedup" in res:
            out[f"workloads.{name}.speedup"] = res["speedup"]
    batched = summary.get("batched")
    if batched:
        for key, rate in batched.get("lane_cycles_per_s", {}).items():
            out[f"batched.lane_cycles_per_s.{key}"] = rate
        out["batched.speedup"] = batched["speedup"]
    codegen = summary.get("codegen")
    if codegen:
        for key, rate in codegen.get("lane_cycles_per_s", {}).items():
            out[f"codegen.lane_cycles_per_s.{key}"] = rate
        out["codegen.speedup_vs_levelized"] = codegen["speedup_vs_levelized"]
    flight = summary.get("flight")
    if flight:
        for engine in bench_flight.ENGINES:
            rates = flight.get(engine, {}).get("cycles_per_s", {})
            for mode, rate in rates.items():
                out[f"flight.{engine}.cycles_per_s.{mode}"] = rate
    interchange = summary.get("interchange")
    if interchange:
        for label, entry in interchange.get("workloads", {}).items():
            out[f"interchange.{label}.emit_per_s"] = entry["emit_per_s"]
            out[f"interchange.{label}.import_per_s"] = entry["import_per_s"]
        for label, entry in interchange.get("iscas", {}).items():
            out[f"interchange.{label}.import_gates_per_s"] = (
                entry["import_gates_per_s"])
    timing = summary.get("timing")
    if timing:
        for label, entry in timing.get("workloads", {}).items():
            out[f"timing.{label}.analyses_per_s"] = entry["analyses_per_s"]
    service = summary.get("service")
    if service:
        for n, entry in service["compile"]["clients"].items():
            out[f"service.compile.{n}_clients.cold_rps"] = entry["cold_rps"]
            out[f"service.compile.{n}_clients.warm_rps"] = entry["warm_rps"]
        out["service.compile.warm_speedup"] = (
            bench_service.best_warm_speedup(service)
        )
        out["service.mux.cycles_per_s"] = (
            service["mux"]["mux_cycles_per_s"]
        )
        out["service.mux.speedup"] = service["mux"]["speedup"]
    return out


def fresh_summary(cycles: int, seed: int = 0) -> dict:
    """One fresh pass of every benchmark driver, merged the same way
    the committed file is built."""
    summary = bench_engines.run_benchmarks(cycles, metrics_dir=None,
                                           seed=seed)
    summary["batched"] = bench_batched.run_benchmark(
        max(cycles // 20, 3), seed=seed
    )
    summary["codegen"] = bench_codegen.run_benchmark(
        max(cycles // 20, 3), seed=seed
    )
    summary["flight"] = bench_flight.run_benchmark(cycles, seed=seed)
    summary["timing"] = bench_timing.run_benchmark(repeat=1)
    summary["interchange"] = bench_interchange.run_benchmark(repeat=1)
    summary["service"] = bench_service.run_benchmark(
        requests=4, cycles=max(cycles // 20, 5)
    )
    return summary


def compare(committed: dict, fresh: dict, tolerance: float) -> dict:
    """Per-metric comparison; a metric regresses when the fresh value
    falls below ``committed * (1 - tolerance)``."""
    base = committed_metrics(committed)
    now = committed_metrics(fresh)
    rows = []
    regressions = 0
    for key in sorted(base):
        if key not in now:
            continue
        was, got = base[key], now[key]
        ratio = got / was if was else float("inf")
        regressed = ratio < 1.0 - tolerance
        regressions += regressed
        rows.append({
            "metric": key,
            "committed": was,
            "fresh": got,
            "ratio": ratio,
            "regressed": regressed,
        })
    return {
        "schema": "zeus.bench.check/1",
        "tolerance": tolerance,
        "regressions": regressions,
        "metrics": rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline",
                    default=os.path.join(REPO, "BENCH_simulator.json"),
                    help="committed summary to compare against")
    ap.add_argument("--cycles", type=int, default=500,
                    help="cycles per fresh measurement (default 500)")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional slowdown (default 0.30)")
    ap.add_argument("--report", metavar="FILE",
                    help="write the comparison as JSON (the CI artifact)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    with open(args.baseline, encoding="utf-8") as f:
        committed = json.load(f)
    fresh = fresh_summary(args.cycles, seed=args.seed)
    result = compare(committed, fresh, args.tolerance)

    for row in result["metrics"]:
        flag = "REGRESSED" if row["regressed"] else "ok"
        print(f"{row['metric']:<48} {row['committed']:>14,.1f} -> "
              f"{row['fresh']:>14,.1f}  ({row['ratio']:.2f}x)  {flag}")
    print(f"{result['regressions']} regression(s) beyond "
          f"{args.tolerance:.0%} tolerance")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.report}")
    return 1 if result["regressions"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
