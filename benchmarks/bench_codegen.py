"""Codegen engine benchmark: lane throughput vs the levelized scalar engine.

Measures steady-state lane-cycles/sec of the exec-compiled lane engine
(Python big-int planes) along a lane-scaling curve of random-stimulus
sweeps of the 16-bit ripple-carry adder, against the levelized scalar
engine running 64 of the same stimuli one at a time in the same run.
Results are merged into the repo-root ``BENCH_simulator.json`` under a
``codegen`` key.

Used by the CI benchmark-smoke job::

    PYTHONPATH=src python benchmarks/bench_codegen.py \
        --cycles 30 --out BENCH_simulator.json --min-speedup 3250

The acceptance bar is 3250x: the best point on the lane-scaling curve
must beat the levelized engine by at least that factor (7065x
committed, at the 16384-lane sweet spot).
"""

from __future__ import annotations

import argparse
import random
import time

import repro
from repro.stdlib import programs

from bench_batched import measure_levelized, merge_into_summary

LANE_CURVE = (1024, 4096, 16384, 65536, 262144)

#: Stimuli the levelized comparand runs, one at a time.
BASELINE_STIMULI = 64


def _stimuli(rng, lanes):
    return {
        "a": [rng.randrange(1 << 16) for _ in range(lanes)],
        "b": [rng.randrange(1 << 16) for _ in range(lanes)],
        "cin": [rng.randint(0, 1) for _ in range(lanes)],
    }


def _measure(circuit, stim, lanes, cycles):
    """Steady-state lane-cycles/sec (one warm-up step before timing)."""
    sim = circuit.simulator(engine="codegen", lanes=lanes)
    if not sim._batched_fast:
        raise RuntimeError("adders must take the bit-parallel path")
    for name, values in stim.items():
        sim.poke_lanes(name, values)
    sim.step()
    t0 = time.perf_counter()
    sim.step(cycles)
    elapsed = time.perf_counter() - t0
    return (lanes * cycles) / elapsed, sim


def _check_adder(sim, stim):
    a, b, cin = stim["a"][0], stim["b"][0], stim["cin"][0]
    s = sim.peek_lane_int("s", 0)
    cout = sim.peek_lane_int("cout", 0)
    if ((cout << 16) | s) != a + b + cin:
        raise RuntimeError(
            "codegen adder result is wrong; not benchmarking a broken engine"
        )


def run_benchmark(cycles, seed=0, curve=LANE_CURVE):
    circuit = repro.compile_text(programs.ripple_carry(16), top="adder")
    rng = random.Random(seed)
    results = {"workload": "adders-sweep", "cycles": cycles}

    levelized_rate = measure_levelized(
        circuit, _stimuli(rng, BASELINE_STIMULI), BASELINE_STIMULI, cycles
    )

    int_curve: dict[str, float] = {}
    for lanes in curve:
        lane_stim = _stimuli(rng, lanes)
        rate, sim = _measure(circuit, lane_stim, lanes, cycles)
        _check_adder(sim, lane_stim)
        int_curve[str(lanes)] = rate
    best = max(int_curve.values())

    results["lane_curve"] = {"int": int_curve}
    results["lane_cycles_per_s"] = {
        "levelized": levelized_rate,
        "codegen_int_best": best,
    }
    results["speedup_vs_levelized"] = best / levelized_rate
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cycles", type=int, default=30,
                    help="cycles per measurement (default 30)")
    ap.add_argument("--out", default="BENCH_simulator.json",
                    help="summary JSON to merge into")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="fail unless best-of-curve vs levelized "
                         "clears this bar")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    results = run_benchmark(args.cycles, seed=args.seed)
    rates = results["lane_cycles_per_s"]
    print(f"adders sweep  levelized {rates['levelized']:>10,.0f} lane-c/s   "
          f"codegen best {rates['codegen_int_best']:>12,.0f} lane-c/s   "
          f"speedup {results['speedup_vs_levelized']:.0f}x")
    for lanes, rate in results["lane_curve"]["int"].items():
        print(f"  {int(lanes):>7} lanes: {rate:>13,.0f} lane-cycles/s")
    merge_into_summary(args.out, results, key="codegen")
    print(f"wrote {args.out}")

    if (args.min_speedup is not None
            and results["speedup_vs_levelized"] < args.min_speedup):
        print(f"FAIL: speedup {results['speedup_vs_levelized']:.2f}x "
              f"< required {args.min_speedup}x")
        return 1
    return 0


# -- tier-1 smoke (bench_*.py files are collected by pytest) ---------------

def test_bench_codegen_summary_shape(tmp_path):
    out = tmp_path / "BENCH_simulator.json"
    results = run_benchmark(cycles=3, curve=(1024, 4096))
    assert results["speedup_vs_levelized"] > 1
    assert set(results["lane_curve"]["int"]) == {"1024", "4096"}
    summary = merge_into_summary(str(out), results, key="codegen")
    assert summary["schema"] == "zeus.bench.simulator/1"
    assert summary["codegen"]["workload"] == "adders-sweep"
    merged = merge_into_summary(str(out), results, key="codegen")
    assert merged["codegen"] == results


if __name__ == "__main__":
    raise SystemExit(main())
