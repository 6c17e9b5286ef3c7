"""Batched bit-parallel engine benchmark: lane throughput vs levelized.

Measures steady-state lane-cycles/sec of ``engine="batched"`` -- an
alias of the compiled lane engine, so this times the codegen kernel --
on a 64-lane random-stimulus sweep of the 16-bit ripple-carry adder against
the levelized scalar engine running the same 64 stimuli one lane at a
time, plus a lane-scaling curve (16/64/256/1024 lanes).  Results are
merged into the repo-root ``BENCH_simulator.json`` under a ``batched``
key (the ``zeus.bench.simulator/1`` summary that ``bench_engines.py``
writes).

Used by the CI benchmark-smoke job::

    PYTHONPATH=src python benchmarks/bench_batched.py \
        --cycles 30 --out BENCH_simulator.json --min-speedup 20

The acceptance bar is 20x: one batched pass over 64 lanes must beat 64
scalar levelized passes by at least that factor (measured ~30x here).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import time

import repro
from repro.stdlib import programs

LANE_CURVE = (16, 64, 256, 1024)


def _stimuli(rng, lanes):
    return {
        "a": [rng.randrange(1 << 16) for _ in range(lanes)],
        "b": [rng.randrange(1 << 16) for _ in range(lanes)],
        "cin": [rng.randint(0, 1) for _ in range(lanes)],
    }


def measure_batched(circuit, stim, lanes, cycles):
    """Steady-state lane-cycles/sec: the simulator is warmed with one
    step before timing (schedule and plane buffers already built)."""
    sim = circuit.simulator(engine="batched", lanes=lanes)
    if not sim._batched_fast:
        raise RuntimeError("adders must take the bit-parallel path")
    for name, values in stim.items():
        sim.poke_lanes(name, values)
    sim.step()
    t0 = time.perf_counter()
    sim.step(cycles)
    elapsed = time.perf_counter() - t0
    return (lanes * cycles) / elapsed, sim


def measure_levelized(circuit, stim, lanes, cycles):
    """The same lane stimuli run one at a time on the levelized scalar
    engine (one warmed simulator, re-poked per lane)."""
    sim = circuit.simulator(engine="levelized")
    sim.step()
    t0 = time.perf_counter()
    for k in range(lanes):
        for name, values in stim.items():
            sim.poke(name, values[k])
        sim.step(cycles)
    elapsed = time.perf_counter() - t0
    return (lanes * cycles) / elapsed


def run_benchmark(cycles, seed=0):
    circuit = repro.compile_text(programs.ripple_carry(16), top="adder")
    rng = random.Random(seed)
    results = {"workload": "adders-sweep", "cycles": cycles}

    stim = _stimuli(rng, 64)
    batched_rate, sim = measure_batched(circuit, stim, 64, cycles)
    scalar_rate = measure_levelized(circuit, stim, 64, cycles)
    # sanity: lane 0 of the batched run equals the last scalar state only
    # by accident; instead spot-check the adder result itself
    a, b, cin = stim["a"][0], stim["b"][0], stim["cin"][0]
    s = sim.peek_lane_int("s", 0)
    cout = sim.peek_lane_int("cout", 0)
    if ((cout << 16) | s) != a + b + cin:
        raise RuntimeError("batched adder result is wrong; not benchmarking a broken engine")
    results["lane_cycles_per_s"] = {
        "batched_64": batched_rate,
        "levelized": scalar_rate,
    }
    results["speedup"] = batched_rate / scalar_rate

    curve = {}
    for lanes in LANE_CURVE:
        rate, _ = measure_batched(
            circuit, _stimuli(rng, lanes), lanes, cycles
        )
        curve[str(lanes)] = rate
    results["lane_curve"] = curve
    return results


def merge_into_summary(out_path, results, key="batched"):
    """Add one top-level section (``batched`` by default; *key* for
    other benchmark drivers, e.g. ``flight``) to an existing
    bench_engines summary (or start a fresh one when the file does not
    exist)."""
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as f:
            summary = json.load(f)
    else:
        summary = {"schema": "zeus.bench.simulator/1", "workloads": {}}
    summary[key] = results
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cycles", type=int, default=30,
                    help="cycles per measurement (default 30)")
    ap.add_argument("--out", default="BENCH_simulator.json",
                    help="summary JSON to merge into")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="fail unless the 64-lane speedup clears this bar")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    results = run_benchmark(args.cycles, seed=args.seed)
    rates = results["lane_cycles_per_s"]
    print(f"adders sweep  batched(64) {rates['batched_64']:>12,.0f} lane-c/s   "
          f"levelized {rates['levelized']:>10,.0f} lane-c/s   "
          f"speedup {results['speedup']:.1f}x")
    for lanes, rate in results["lane_curve"].items():
        print(f"  {int(lanes):>5} lanes: {rate:>12,.0f} lane-cycles/s")
    merge_into_summary(args.out, results)
    print(f"wrote {args.out}")

    if args.min_speedup is not None and results["speedup"] < args.min_speedup:
        print(f"FAIL: speedup {results['speedup']:.2f}x "
              f"< required {args.min_speedup}x")
        return 1
    return 0


# -- tier-1 smoke (bench_*.py files are collected by pytest) ---------------

def test_bench_batched_summary_shape(tmp_path):
    out = tmp_path / "BENCH_simulator.json"
    results = run_benchmark(cycles=3)
    assert results["speedup"] > 1
    assert set(results["lane_curve"]) == {str(n) for n in LANE_CURVE}
    summary = merge_into_summary(str(out), results)
    assert summary["schema"] == "zeus.bench.simulator/1"
    assert summary["batched"]["workload"] == "adders-sweep"
    # merging preserves an existing engines summary
    merged = merge_into_summary(str(out), results)
    assert merged["batched"] == results


if __name__ == "__main__":
    raise SystemExit(main())
