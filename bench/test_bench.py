"""Self-test of the benchmark: ``python -m pytest bench -q``.

Runs every workload at tiny size (a few seconds each), so it is not part
of the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
# The repository tracks some bytecode; never rewrite it from here.
sys.pycache_prefix = os.path.join(BENCH, "out", "pycache")

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
NAMES = [w["name"] for w in SPEC["workloads"]]
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def bench(*args: str) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--tiny",
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_all():
    """Every workload, untraced then traced."""
    return bench("--seed", "5", "--trace")


def test_every_workload_is_correct_at_tiny_size(traced_all):
    _, out = traced_all
    assert sorted(out["workloads"]) == sorted(NAMES)
    for name, res in out["workloads"].items():
        assert res["correct"] and res["failed"] == 0, name
        assert res["attempted"] >= 1, name


def test_printed_metric_names_match_benchmark_json(traced_all):
    lines, out = traced_all
    printed = {}
    for line in lines:
        workload, metric, _value, _unit = line.split()
        printed.setdefault(workload, []).append(metric)
    for name, res in out["workloads"].items():
        assert list(res["metrics"]) == E2E
        assert list(res["per_layer"]) == PER_LAYER
        assert printed[name] == E2E + PER_LAYER + ["tracing_overhead"]
        assert all(m["value"] > 0 for m in res["metrics"].values()), name
    # Each per-layer metric is measured by some workload.
    unmeasured = [m for m in PER_LAYER
                  if m != "service.shed"  # 0 unless zeusd sheds load
                  and not any(res["per_layer"][m]["value"]
                              for res in out["workloads"].values())]
    assert not unmeasured


def test_corrupted_reference_fails_every_workload():
    _, out = bench("--seed", "6", "--corrupt")
    for name, res in out["workloads"].items():
        assert not res["correct"] and res["failed"] > 0, name


def test_single_workload_contract_line():
    lines, out = bench("--workload", "compile", "--seed", "7",
                       "--trace", "0")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert list(out["metrics"]) == E2E
    assert [line.split()[1] for line in lines] == E2E


def _inputs(cls, seed):
    wl = cls(seed, tiny=True)
    wl.setup()
    try:
        if cls is workloads.Compile:
            return wl.sources
        if cls is workloads.ColdSim:
            return wl.argv
        if cls is workloads.SimScalar:
            return wl.rows
        return [stim for _g, _d, _s, stim, _l in wl.configs]
    finally:
        wl.close()


@pytest.mark.parametrize("cls", [workloads.Compile, workloads.ColdSim,
                                 workloads.SimScalar, workloads.LaneSoak])
def test_seed_changes_inputs(cls):
    assert _inputs(cls, 1) == _inputs(cls, 1)
    assert _inputs(cls, 1) != _inputs(cls, 2)


def test_seed_keeps_the_metric_set():
    sets = [bench("--workload", "sim-scalar", "--seed", seed)[1]["metrics"]
            for seed in ("1", "2")]
    assert list(sets[0]) == list(sets[1]) == E2E
