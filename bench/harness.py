"""Measurement plumbing shared by the zeusbench workloads.

* :class:`Recorder` times each operation of a workload's timed loop,
  grouped by design (or request kind), and turns the samples into the
  end-to-end metrics every workload reports.
* :class:`Tracer` records harness-side spans around calls into each
  layer's public functions (installed by :func:`install_trace_points`
  only for a traced run), aggregates per-layer self time online, keeps
  the first spans in memory and writes them as Chrome trace-event JSON.
* :class:`Checker` counts outputs that disagree with their independent
  reference.

Nothing here imports :mod:`repro` at module level: the cold-start
workload must not pay for it before its timed loop.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import statistics
import threading
import time

#: The layers, named after the repository's modules.
LAYERS = (
    "lang", "core.elaborate", "core.checker", "core.schedule",
    "core.codegen", "core.simulator", "core.batched", "formal", "timing",
    "lint", "service", "cli",
)

#: Spans opened by the harness itself around each timed operation; their
#: self time is whatever no layer span covers (glue code in the public
#: entry points plus the harness's own bookkeeping).
BENCH_LAYER = "bench"

#: The percentile of each group's op times the end-to-end metrics use.
ROBUST_Q = 10


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0 < q < 100), linearly interpolated."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    pos = (len(vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def geomean(values) -> float:
    vals = list(values)
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (the spread rule the benchmark's bounds are set by)."""
    vals = list(values)
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def peak_rss_mb(who: str = "self") -> float:
    """``ru_maxrss`` of this process (or of its waited-for children)."""
    import resource

    kind = resource.RUSAGE_SELF if who == "self" else resource.RUSAGE_CHILDREN
    return resource.getrusage(kind).ru_maxrss / 1024.0  # KiB on Linux


class _Op:
    __slots__ = ("rec", "group", "work", "t0", "frame")

    def __init__(self, rec: "Recorder", group: str, work: float):
        self.rec = rec
        self.group = group
        self.work = work
        self.frame = None

    def __enter__(self):
        tracer = self.rec.tracer
        if tracer is not None:
            self.frame = tracer.begin(BENCH_LAYER, self.group)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        if self.frame is not None:
            self.rec.tracer.end(self.frame)
        if exc_type is None:
            self.rec.add(self.group, dt, self.work)
        return False


class Recorder:
    """Per-operation timings of one workload's timed loop.

    ``with rec.op(group, work):`` times one operation; *work* is how many
    throughput units it completes (designs, cycles, vectors,
    lane-cycles, verdicts or requests)."""

    def __init__(self, seconds: float, tracer: "Tracer | None" = None):
        self.seconds = seconds
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}
        self.done_at: list[float] = []
        self.work = 0.0
        self.ops = 0
        self._lock = threading.Lock()
        self._t0 = None
        self.wall = 0.0

    def op(self, group: str, work: float = 1) -> _Op:
        return _Op(self, group, work)

    def span(self, layer: str, name: str):
        """A layer span inside an op, for calls no trace point wraps
        (a process start, an HTTP request)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(layer, name)

    def add(self, group: str, seconds: float, work: float = 1) -> None:
        with self._lock:
            self.times.setdefault(group, []).append(seconds)
            self.done_at.append(time.perf_counter() - self._t0)
            self.work += work
            self.ops += 1

    def add_work(self, work: float) -> None:
        """Work an op completed, when only its output tells how much."""
        with self._lock:
            self.work += work

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.phase = "timed"
        self._t0 = time.perf_counter()

    def more(self) -> bool:
        """True until the run's measuring time is used up (always at
        least one round: call after each round)."""
        return time.perf_counter() - self._t0 < self.seconds

    def stop(self) -> None:
        self.wall = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.phase = None

    @property
    def busy(self) -> float:
        return sum(sum(ts) for ts in self.times.values())

    def window_rate(self, window: float = 1.0) -> float:
        """Ops completed per second in the loop's whole *window*-second
        windows, at the ``100 - ROBUST_Q`` percentile window."""
        counts = [0] * max(1, int(self.wall // window))
        for t in self.done_at:
            if t < len(counts) * window:
                counts[int(t // window)] += 1
        return percentile(counts, 100 - ROBUST_Q) / window

    def e2e(self, rss_mb: float, concurrent: bool = False) -> dict:
        """The end-to-end metrics except ``setup_s`` (measured by the
        runner).

        Shared hosts change speed by tens of percent for seconds at a
        time, so each group's op time is taken at a low percentile
        (``ROBUST_Q``): the time the op takes while the host is not
        slowed, which still moves with every change to the work.
        Throughput is the work done over the ops' time at that
        percentile; with *concurrent* clients it is the completion rate
        of the fast one-second windows.  Latency is the geometric mean
        over groups (designs, request kinds) of that op time, so each
        group weighs the same whatever its size."""
        q = {g: percentile(ts, ROBUST_Q) for g, ts in self.times.items()}
        if concurrent:
            throughput = self.window_rate()
        else:
            throughput = self.work / sum(
                len(ts) * q[g] for g, ts in self.times.items())
        return {
            "throughput": throughput,
            "latency_ms.p10": geomean(q.values()) * 1e3,
            "peak_rss_mb": rss_mb,
        }


class Checker:
    """Counts outputs that disagree with their reference.

    With *corrupt* the first reference compared is replaced by a value
    that equals nothing -- the self-test's proof that checks bite."""

    _NEVER = object()

    def __init__(self, corrupt: bool = False):
        self.corrupt = corrupt
        self.checks = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, what: str, got, want) -> bool:
        if self.corrupt and self.checks == 0:
            want = self._NEVER
        self.checks += 1
        if got == want:
            return True
        self.fail(f"{what}: got {got!r}, want {want!r}")
        return False

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note[:400])


class Tracer:
    """Harness-side spans: name, layer, start, end, parent, op id.

    Spans are aggregated per ``(layer, name)`` (count, inclusive and self
    time, summed sizes) separately for set-up and for the timed loop; the
    checks after the loop are not aggregated.  The first ``max_events``
    spans of the whole run are kept for the Chrome trace.  A span's self
    time is its duration minus its children's."""

    def __init__(self, workload: str, max_events: int = 100_000):
        self.workload = workload
        self.max_events = max_events
        #: "setup", "timed" (set by the Recorder) or None (checks).
        self.phase = "setup"
        self.stats: dict[str, dict[tuple[str, str], list[int]]] = {
            "setup": {}, "timed": {}}
        self.events: list[tuple] = []
        self.codegen_sources: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str, name: str) -> list:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][2] if stack else 0
        op = stack[0][2] if stack else sid
        # [layer, name, id, parent, op, start_ns, child_ns]
        frame = [layer, name, sid, parent, op, time.perf_counter_ns(), 0]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        layer, name, sid, parent, op, start, child = frame
        dur = end - start
        if stack:
            stack[-1][6] += dur
        with self._lock:
            if self.phase is not None:
                s = self.stats[self.phase].setdefault((layer, name),
                                                      [0, 0, 0, 0])
                s[0] += 1
                s[1] += dur
                s[2] += dur - child
            if len(self.events) < self.max_events:
                self.events.append((layer, name, sid, parent, op, start, dur,
                                    threading.get_ident()))

    def add_size(self, layer: str, name: str, size: int) -> None:
        with self._lock:
            if self.phase is not None:
                self.stats[self.phase].setdefault((layer, name),
                                                  [0, 0, 0, 0])[3] += size

    def span(self, layer: str, name: str) -> "_Span":
        return _Span(self, layer, name)

    def wrap(self, fn, layer, name: str, size=None):
        """*fn* with a span around every call.  *layer* may be a function
        of the call's first argument; *size* maps the result to a count
        summed into the span's statistics (outside the span)."""
        begin, end, add_size = self.begin, self.end, self.add_size

        def traced(*args, **kwargs):
            lay = layer(args[0]) if callable(layer) else layer
            frame = begin(lay, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(frame)
            if size is not None:
                add_size(lay, name, size(result))
            return result

        return traced

    # -- output ----------------------------------------------------------

    def summary(self, busy_s: float) -> dict:
        """Per layer in the timed loop: calls, self ms and share of the
        timed busy time; per span name and phase: calls, inclusive and
        self ms."""
        layers: dict[str, dict] = {}
        functions: dict[str, dict] = {}
        for phase, stats in self.stats.items():
            for (layer, name), (count, incl, own, size) in stats.items():
                functions[f"{phase}:{layer}/{name}"] = {
                    "calls": count, "incl_ms": incl / 1e6,
                    "self_ms": own / 1e6, "size": size,
                }
                if phase == "timed":
                    entry = layers.setdefault(layer,
                                              {"calls": 0, "self_ms": 0.0})
                    entry["calls"] += count
                    entry["self_ms"] += own / 1e6
        for entry in layers.values():
            entry["share_pct"] = 100.0 * entry["self_ms"] / (busy_s * 1e3)
        return {"workload": self.workload, "busy_s": busy_s,
                "layers": layers, "functions": functions}

    def write_chrome(self, path: str, meta: dict) -> None:
        """Chrome trace-event JSON (loads in Perfetto / chrome://tracing)."""
        pid = os.getpid()
        t0 = min((e[5] for e in self.events), default=0)
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": pid, "tid": tid,
             "ts": (start - t0) / 1e3, "dur": dur / 1e3,
             "args": {"id": sid, "parent": parent, "op": op}}
            for layer, name, sid, parent, op, start, dur, tid in self.events
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta}, f)


class _Span:
    __slots__ = ("tracer", "layer", "name", "frame")

    def __init__(self, tracer: Tracer, layer: str, name: str):
        self.tracer = tracer
        self.layer = layer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer.begin(self.layer, self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.frame)
        return False


def _step_layer(sim) -> str:
    # On the lane engines a step is the compiled kernel's pass.
    return "core.codegen" if sim.engine == "codegen" else "core.simulator"


def install_trace_points(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in harness spans.

    The wrappers replace module attributes at the places the library
    looks them up, so the untraced code path runs unchanged underneath:
    ``compile_text`` resolves ``parse``/``elaborate``/``check`` from the
    ``repro`` package, the parser calls the lexer through
    ``repro.lang.parser``, and the simulator builds its schedule and
    kernel through ``repro.core.simulator`` and ``repro.core.codegen``."""
    import repro
    import repro.core.codegen as codegen
    import repro.core.simulator as simulator
    import repro.formal as formal
    import repro.lang.parser as parser
    import repro.lint as lint
    import repro.timing as timing

    def codegen_size(step) -> int:
        if len(tracer.codegen_sources) < 32:
            tracer.codegen_sources.append(step.source)
        return step.source.count("\n")

    sim_cls = simulator.Simulator
    points = [
        (parser, "tokenize_with_comments", "lang", "tokenize",
         lambda r: len(r[0])),
        (repro, "parse", "lang", "parse", None),
        (repro, "elaborate", "core.elaborate", "elaborate",
         lambda d: len(d.netlist.nets)),
        (repro, "check", "core.checker", "check", None),
        (simulator, "build_schedule", "core.schedule", "build_schedule",
         lambda s: len(s.ops)),
        (codegen, "compile_step", "core.codegen", "compile_step",
         codegen_size),
        (sim_cls, "__init__", "core.simulator", "init", None),
        (sim_cls, "poke", "core.simulator", "poke", None),
        (sim_cls, "peek", "core.simulator", "peek", None),
        (sim_cls, "step", _step_layer, "step", None),
        (sim_cls, "poke_lanes", "core.batched", "poke_lanes", None),
        (sim_cls, "peek_lanes", "core.batched", "peek_lanes", None),
        (formal, "prove", "formal", "prove", None),
        (formal, "check_equivalence", "formal", "equiv", None),
        (timing, "analyze_timing", "timing", "analyze", None),
        (lint, "run_lint", "lint", "run_lint", None),
    ]
    for owner, attr, layer, name, size in points:
        setattr(owner, attr,
                tracer.wrap(getattr(owner, attr), layer, name, size))


#: ``(layer, span name)`` -> (per-layer metric, scale from ns): the mean
#: inclusive duration of one call (``core.simulator.init_ms`` is self
#: time: construction without the schedule and kernel builds).
FUNCTION_METRICS = {
    ("lang", "tokenize"): ("lang.tokenize_ms", 1e-6),
    ("lang", "parse"): ("lang.parse_ms", 1e-6),
    ("core.elaborate", "elaborate"): ("core.elaborate_ms", 1e-6),
    ("core.checker", "check"): ("core.checker_ms", 1e-6),
    ("core.schedule", "build_schedule"): ("core.schedule_ms", 1e-6),
    ("core.codegen", "compile_step"): ("core.codegen_ms", 1e-6),
    ("core.codegen", "step"): ("core.codegen.step_ms", 1e-6),
    ("core.simulator", "init"): ("core.simulator.init_ms", 1e-6),
    ("core.simulator", "poke"): ("core.simulator.poke_us", 1e-3),
    ("core.simulator", "step"): ("core.simulator.step_us", 1e-3),
    ("core.simulator", "peek"): ("core.simulator.peek_us", 1e-3),
    ("core.batched", "poke_lanes"): ("core.batched.poke_lanes_ms", 1e-6),
    ("core.batched", "peek_lanes"): ("core.batched.peek_lanes_ms", 1e-6),
    ("formal", "prove"): ("formal.prove_ms", 1e-6),
    ("formal", "equiv"): ("formal.equiv_ms", 1e-6),
    ("timing", "analyze"): ("timing.analyze_ms", 1e-6),
    ("lint", "run_lint"): ("lint.ms", 1e-6),
}

#: ``(layer, span name)`` -> per-layer metric: mean size per call.
SIZE_METRICS = {
    ("core.elaborate", "elaborate"): "core.elaborate.nets",
    ("core.schedule", "build_schedule"): "core.schedule.ops",
    ("core.codegen", "compile_step"): "core.codegen.source_lines",
}


def layer_metrics(tracer: Tracer, busy_s: float) -> dict:
    """The per-layer metrics every traced run derives from its spans.

    A call's mean comes from the timed loop, or from set-up for calls
    made only there (the kernel build, lane pokes on ``lane-soak``)."""
    out: dict[str, float] = {}
    stats = {**tracer.stats["setup"], **tracer.stats["timed"]}
    for (layer, name), (count, incl, own, size) in stats.items():
        if (layer, name) in FUNCTION_METRICS:
            metric, scale = FUNCTION_METRICS[(layer, name)]
            out[metric] = (own if metric == "core.simulator.init_ms"
                           else incl) / count * scale
        if (layer, name) in SIZE_METRICS:
            out[SIZE_METRICS[(layer, name)]] = size / count
        if (layer, name) == ("lang", "tokenize") and incl:
            out["lang.tokens_per_s"] = size / (incl / 1e9)
    layers = tracer.summary(busy_s)["layers"]
    for layer in LAYERS + (BENCH_LAYER,):
        label = "unattributed" if layer == BENCH_LAYER else layer
        out[f"share.{label}"] = layers.get(layer, {}).get("share_pct", 0.0)
    if tracer.codegen_sources:
        # Python's builtin compile() of the generated kernel source,
        # re-timed here after the run (codegen spends most of its time
        # in it).
        times = []
        for source in tracer.codegen_sources:
            t0 = time.perf_counter()
            compile(source, "<zeusbench-codegen>", "exec")
            times.append(time.perf_counter() - t0)
        out["core.codegen.pycompile_ms"] = statistics.mean(times) * 1e3
    return out
