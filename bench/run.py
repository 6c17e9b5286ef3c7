"""zeusbench: the end-to-end and per-layer benchmark of the Zeus toolchain.

Run one workload (each run is a fresh process; set-up time is the
median of three process starts)::

    python3 bench/run.py --workload compile --seed 1 --seconds 10 --trace 0

``--trace 1`` reruns it with harness spans around every layer's public
calls and prints the per-layer metrics; the Chrome trace and a per-layer
summary land in ``bench/out/``.  Without ``--workload`` every workload
runs (with ``--trace``, untraced and traced, plus the tracing overhead).

Repeatability::

    python3 bench/run.py --runs 10 --out a.json
    python3 bench/run.py --runs 10 --out b.json
    python3 bench/run.py --compare a.json b.json

Every line but the last is ``workload metric value unit``; the last line
is one JSON object.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKER = os.path.join(BENCH, "worker.py")
# This process imports only the standard library and harness.py; keep its
# bytecode with the workers' instead of beside the sources.
sys.pycache_prefix = os.path.join(OUT, "pycache")

from harness import quartiles  # noqa: E402

#: Set-up is timed this many times per untraced run (median reported).
SETUP_SAMPLES = 3
#: Every run, set-up probes included, ends within this many seconds.
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Bytecode of the repository (and of the standard library) is cached
    # under bench/out, never beside the sources, and always on: a cold
    # process then pays imports, not compilation.
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One worker process; its whole process group is stopped on every
    exit path."""

    def __init__(self, argv: list[str], deadline: float):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, *argv], cwd=ROOT, env=worker_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        self.timed_out = False
        self._timer = threading.Timer(
            max(0.0, deadline - time.monotonic()), self._expire)
        self._timer.start()

    def _expire(self) -> None:
        self.timed_out = True
        self.stop()

    def stop(self) -> None:
        """SIGTERM lets the worker close what it started; SIGKILL to
        the group follows for anything still running."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGTERM)
                self.proc.wait(timeout=15)
            except ProcessLookupError:
                pass
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def result(self) -> tuple[float | None, dict | None]:
        """(set-up seconds, result object) once the worker exits."""
        setup_s = None
        last = None
        try:
            for line in self.proc.stdout:
                if line.strip() == "READY" and setup_s is None:
                    setup_s = time.perf_counter() - self.t0
                elif line.strip():
                    last = line
            code = self.proc.wait()
        finally:
            self._timer.cancel()
            self.stop()
            self.proc.stdout.close()
        if self.timed_out:
            raise BenchError(f"worker {self.proc.args[2:]} ran past its "
                             f"{RUN_LIMIT_S} s limit")
        if code != 0 or setup_s is None:
            raise BenchError(f"worker {self.proc.args[2:]} exited {code}")
        return setup_s, json.loads(last) if last else None


_current: list[Worker] = []


def run_worker(argv: list[str], deadline: float):
    worker = Worker(argv, deadline)
    _current.append(worker)
    try:
        return worker.result()
    finally:
        _current.remove(worker)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 extra: list[str]) -> dict:
    """One run of one workload: untraced runs time set-up
    ``SETUP_SAMPLES`` times (probes that stop after set-up, then the
    measured run)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    argv = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(int(trace)), *extra]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, _ = run_worker(argv + ["--setup-only"], deadline)
            setups.append(setup_s)
    setup_s, result = run_worker(argv, deadline)
    setups.append(setup_s)
    result["e2e"]["setup_s"] = quartiles(setups)[1]
    return result


def metrics_of(spec: dict, result: dict, trace: bool) -> dict:
    """The run's metrics named as BENCHMARK.json names them.  Per-layer
    metrics a workload never exercises read 0."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["layer"] if trace else result["e2e"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    if not trace and set(values) != names:
        raise BenchError(f"end-to-end metrics not measured: "
                         f"{sorted(names - set(values))}")
    return {m["name"]: {"value": values.get(m["name"], 0.0),
                        "unit": m["unit"]} for m in declared}


def print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")


def report(workload: str, result: dict, metrics: dict) -> dict:
    for note in result["notes"]:
        print(f"{workload}: check failed: {note}", file=sys.stderr)
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# -- repeatability ---------------------------------------------------------


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def run_sets(spec, names, seed, seconds, runs, extra, out_path) -> dict:
    data = {"seconds": seconds, "runs": {}}
    for i in range(runs):
        for name in names:
            result = run_workload(name, seed + i, seconds, False, extra)
            metrics = metrics_of(spec, result, False)
            data["runs"].setdefault(name, []).append(
                {k: m["value"] for k, m in metrics.items()})
            print(f"run {i + 1}/{runs} {name} seed {seed + i}: "
                  f"failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump(data, f, indent=2, sort_keys=True)
    for name, runs_ in data["runs"].items():
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs_]
            q1, med, q3 = quartiles(values)
            print(f"{name} {m['name']} median {med:.6g} q1 {q1:.6g} "
                  f"q3 {q3:.6g} {m['unit']} spread "
                  f"{100 * spread(values):.2f}% (bound "
                  f"{100 * m['bound']:.0f}%)")
    return data


def compare(spec, path_a, path_b) -> bool:
    """Do two sets of runs agree within the bounds?  Each metric's spread
    (IQR over median, set-up time exempt) must stay within its bound in
    both sets, and B's median may be worse than A's by at most the
    bound."""
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)["runs"]
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)["runs"]
    ok = True
    for name in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            va = [r[m["name"]] for r in a[name]]
            vb = [r[m["name"]] for r in b[name]]
            qa, qb = quartiles(va), quartiles(vb)
            worse = (qb[1] - qa[1]) / qa[1]
            if m["better"] == "higher":
                worse = -worse
            spreads = (spread(va), spread(vb))
            agree = worse <= m["bound"] and (
                m["name"] == "setup_s" or max(spreads) <= m["bound"])
            ok &= agree
            print(f"{name} {m['name']} A {qa[1]:.6g} [{qa[0]:.6g}, "
                  f"{qa[2]:.6g}] B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] "
                  f"{m['unit']} spread {100 * spreads[0]:.2f}%/"
                  f"{100 * spreads[1]:.2f}% B worse by {100 * worse:+.2f}% "
                  f"bound {100 * m['bound']:.0f}% "
                  f"{'agree' if agree else 'DISAGREE'}")
    return ok


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measuring time per run (default from "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: traced run, per-layer metrics")
    ap.add_argument("--runs", type=int, metavar="N",
                    help="N untraced runs per workload, seeds seed.."
                         "seed+N-1; prints medians and quartiles")
    ap.add_argument("--out", metavar="FILE",
                    help="with --runs: write the runs as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="do two --runs files agree within the bounds?")
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs (the self-test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one reference per workload (the "
                         "self-test: failed must become > 0)")
    args = ap.parse_args(argv)

    if args.compare:
        return 0 if compare(spec, *args.compare) else 1
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: src/repro not found next to bench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda s, f: sys.exit(128 + s))
    extra = (["--tiny"] if args.tiny else []) + \
        (["--corrupt"] if args.corrupt else [])
    selected = [args.workload] if args.workload else names
    try:
        if args.runs:
            run_sets(spec, selected, args.seed, args.seconds, args.runs,
                     extra, args.out)
            return 0
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), extra)
            metrics = metrics_of(spec, result, bool(args.trace))
            print_metrics(args.workload, metrics)
            print(json.dumps(report(args.workload, result, metrics)))
            return 0
        summary = {}
        for name in selected:
            result = run_workload(name, args.seed, args.seconds, False,
                                  extra)
            metrics = metrics_of(spec, result, False)
            print_metrics(name, metrics)
            summary[name] = report(name, result, metrics)
            if args.trace:
                traced = run_workload(name, args.seed, args.seconds, True,
                                      extra)
                layer = metrics_of(spec, traced, True)
                print_metrics(name, layer)
                overhead = (result["e2e"]["throughput"]
                            / traced["e2e"]["throughput"])
                print(f"{name} tracing_overhead {overhead:.4g} "
                      "untraced/traced")
                summary[name]["per_layer"] = layer
        print(json.dumps({"workloads": summary}))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for worker in list(_current):
            worker.stop()


if __name__ == "__main__":
    raise SystemExit(main())
