"""The zeusbench workloads.

Each workload generates its inputs from the seed, sets up the system,
runs a timed loop of operations through :class:`harness.Recorder`, and
then checks the operations' outputs against references that do not come
from the timed code path.  Why each workload exists, and which layer it
stresses, is in ``README.md``.

:mod:`repro` is imported inside ``setup`` (never at module level): what
a workload imports is part of its set-up time.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

from harness import peak_rss_mb, percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected")


def chain_program(n_components: int) -> str:
    """A chain of n inverter components (``y = a`` for even n, ``NOT a``
    for odd n)."""
    return (
        "TYPE inv = COMPONENT (IN a: boolean; OUT y: boolean) IS\n"
        "BEGIN y := NOT a END;\n"
        "chain = COMPONENT (IN a: boolean; OUT y: boolean) IS\n"
        f"SIGNAL g: ARRAY [1..{n_components}] OF inv;\n"
        "BEGIN\n"
        "    g[1].a := a;\n"
        f"    FOR i := 2 TO {n_components} DO g[i].a := g[i-1].y END;\n"
        f"    y := g[{n_components}].y\n"
        "END;\n"
        "SIGNAL top: chain;\n"
    )


def adder_stimulus(rng, lanes: int) -> dict:
    """Per-lane a, b and cin for the 16-bit ripple adder."""
    return {"a": [rng.getrandbits(16) for _ in range(lanes)],
            "b": [rng.getrandbits(16) for _ in range(lanes)],
            "cin": [rng.getrandbits(1) for _ in range(lanes)]}


def out_names(circuit_or_sim) -> list[str]:
    return [p.name for p in circuit_or_sim.netlist.ports if p.mode == "OUT"]


def has_reset(sim) -> bool:
    try:
        sim.nets_of("RSET")
    except KeyError:
        return False
    return True


class Workload:
    """One workload: ``setup`` (timed by the runner as set-up time),
    ``warm`` (untimed), ``run`` (the timed loop), ``check``,
    ``layer_extras`` (traced runs only) and ``close``."""

    name = ""
    #: Ops overlap (concurrent clients): throughput is over wall time and
    #: latency percentiles pool every op.
    concurrent = False

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.rng = random.Random(f"{seed}:{self.name}")

    def setup(self) -> None:
        pass

    def warm(self) -> None:
        pass

    def run(self, rec) -> None:
        raise NotImplementedError

    def peak_rss(self) -> float:
        return peak_rss_mb()

    def check(self, chk) -> None:
        raise NotImplementedError

    def layer_extras(self, rec) -> dict:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# compile: source -> ready simulator, the front end end to end.
# ---------------------------------------------------------------------------


class Compile(Workload):
    name = "compile"

    def setup(self):
        import repro
        from repro.stdlib import programs

        self.compile_text = repro.compile_text
        # A seeded trailing comment makes every run's sources its own.
        tag = f"\n<* zeusbench seed {self.seed} *>\n"
        self.sources = {name: text + tag
                        for name, text in programs.ALL_PROGRAMS.items()}
        self.chains = {}
        for size in (50, 200, 800):
            n = (size // 10 if self.tiny else size) + self.rng.randrange(2)
            self.sources[f"chain{size}"] = chain_program(n) + tag
            self.chains[f"chain{size}"] = n
        # One untimed pass finishes lazy imports and warms allocators.
        for name, text in self.sources.items():
            self.compile_text(text, name=name).simulator()
        self.last = {}

    def run(self, rec):
        compile_text = self.compile_text
        names = sorted(self.sources)
        while True:
            self.rng.shuffle(names)
            for name in names:
                text = self.sources[name]
                with rec.op(name):
                    # What `zeusc sim` pays before cycle 0, on the
                    # default engine.
                    sim = compile_text(text, name=name).simulator()
                self.last[name] = sim
            if not rec.more():
                break

    def check(self, chk):
        from repro.core.simulator import Simulator

        for name, sim in sorted(self.last.items()):
            if name in self.chains:
                n = self.chains[name]
                for a in (0, 1):
                    sim.poke("a", a)
                    sim.step()
                    chk.expect(f"{name} y for a={a}", str(sim.peek_bit("y")),
                               str(a if n % 2 == 0 else 1 - a))
                continue
            # A short seeded run against the dataflow oracle.
            sim.strict = False
            ref = Simulator(sim.design, engine="dataflow", strict=False)
            rng = random.Random(f"{self.seed}:check:{name}")
            ports = [p.name for p in sim.netlist.ports]
            reset = bool(sim.netlist.regs) and has_reset(sim)
            for cycle in range(8):
                if reset:
                    sim.poke("RSET", int(cycle == 0))
                    ref.poke("RSET", int(cycle == 0))
                for port in sim.netlist.ports:
                    if port.mode != "IN":
                        continue
                    value = rng.getrandbits(len(port.nets))
                    sim.poke(port.name, value)
                    ref.poke(port.name, value)
                sim.step()
                ref.step()
                chk.expect(f"{name} cycle {cycle}",
                           [sim.peek(p) for p in ports],
                           [ref.peek(p) for p in ports])
            chk.expect(f"{name} registers", sim.registers(), ref.registers())
            chk.expect(f"{name} violations",
                       [(v.cycle, v.net) for v in sim.violations],
                       [(v.cycle, v.net) for v in ref.violations])

    def layer_extras(self, rec):
        return {f"compile_ms.{name}": percentile(ts, 50) * 1e3
                for name, ts in rec.times.items()}


# ---------------------------------------------------------------------------
# cold-sim: a whole `zeusc sim` process, imports included.
# ---------------------------------------------------------------------------


class ColdSim(Workload):
    name = "cold-sim"
    CYCLES = 100

    def setup(self):
        # RSET pulse, then the dealer takes seeded cards.
        self.pokes = [(0, "RSET", 1), (1, "RSET", 0), (1, "ycard", 1),
                      (1, "value", self.rng.randint(1, 10))]
        for cycle in sorted(self.rng.sample(range(2, self.CYCLES), 12)):
            self.pokes.append((cycle, "value", self.rng.randint(1, 10)))
        self.argv = [sys.executable, "-m", "repro.cli", "sim",
                     "--builtin", "blackjack", "--cycles", str(self.CYCLES)]
        for cycle, sig, value in self.pokes:
            self.argv += ["--poke", f"{sig}={value}@{cycle}"]
        self.outputs = []

    def _spawn(self, argv):
        return subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=60)

    def warm(self):
        self._spawn(self.argv)  # fills the bytecode cache

    def run(self, rec):
        while True:
            with rec.op("sim"), rec.span("cli", "sim"):
                done = self._spawn(self.argv)
            self.outputs.append(done)
            if not rec.more():
                break

    def peak_rss(self):
        return peak_rss_mb("children")

    def check(self, chk):
        import repro
        from repro.core.simulator import Simulator
        from repro.core.trace import Trace
        from repro.stdlib import programs

        circuit = repro.compile_text(programs.BLACKJACK, name="blackjack")
        ref = Simulator(circuit.design, engine="dataflow")
        trace = Trace([p.name for p in circuit.netlist.ports])
        ref.attach_trace(trace)
        for t in range(self.CYCLES):
            for cycle, sig, value in self.pokes:
                if cycle == t:
                    ref.poke(sig, value)
            ref.step()
        want = trace.render_ascii() + "\n"
        for i, done in enumerate(self.outputs):
            if done.returncode != 0:
                chk.fail(f"process {i} exited {done.returncode}: "
                         f"{done.stderr.strip()[-300:]}")
                continue
            chk.expect(f"process {i} waveform", done.stdout, want)

    def layer_extras(self, rec):
        # Interpreter start alone vs importing the CLI module, interleaved
        # so both see the same machine state.
        bare, imports = [], []
        for _ in range(5 if self.tiny else 15):
            for argv, out in (([sys.executable, "-c", "pass"], bare),
                              ([sys.executable, "-c", "import repro.cli"],
                               imports)):
                t0 = time.perf_counter()
                self._spawn(argv)
                out.append(time.perf_counter() - t0)
        bare_ms = percentile(bare, 50) * 1e3
        return {"cli.bare_python_ms": bare_ms,
                "cli.import_ms": percentile(imports, 50) * 1e3 - bare_ms}


# ---------------------------------------------------------------------------
# sim-scalar: a testbench's poke -> step -> peek loop, one lane.
# ---------------------------------------------------------------------------

#: A countdown loop that never halts: dmem[0] = 1, acc = n, then
#: acc -= 1 until zero, forever.
CPU_PROGRAM = """
LDI 1
STA 0
LDI {n}
SUB 0
STA 1
JNZ 3
JMP 2
"""


class SimScalar(Workload):
    name = "sim-scalar"
    PERIOD = 1024   # stimulus rows; the row-0 reset recurs every PERIOD
    PREFIX = 256    # cycles checked against the dataflow engine
    CHUNK = 64      # cycles per design per round

    def setup(self):
        import repro
        from repro.stdlib import extras, programs

        with open(os.path.join(ROOT, "examples", "zeus", "tinycpu.zeus"),
                  encoding="utf-8") as f:
            cpu = f.read()
        designs = {
            "blackjack": (programs.BLACKJACK, None, self._blackjack),
            "adder16": (programs.ripple_carry(16), "adder", self._adder),
            "tinycpu": (cpu, None, self._cpu),
            "patternmatch": (programs.PATTERNMATCH, None, self._pattern),
        }
        self.assemble = extras.assemble
        self.sims, self.rows, self.outs = {}, {}, {}
        for name, (text, top, stimulus) in designs.items():
            sim = repro.compile_text(text, top, name=name).simulator()
            rng = random.Random(f"{self.seed}:{name}")
            self.sims[name] = sim
            self.rows[name] = [stimulus(rng, t) for t in range(self.PERIOD)]
            self.outs[name] = out_names(sim)
        self.cycles = dict.fromkeys(self.sims, 0)
        self.seen = {name: [] for name in self.sims}
        self.regs = {}

    @staticmethod
    def _blackjack(rng, t):
        if t == 0:
            return [("RSET", 1), ("ycard", 0), ("value", 0)]
        return [("RSET", 0), ("ycard", rng.getrandbits(1)),
                ("value", rng.randint(1, 10))]

    @staticmethod
    def _adder(rng, t):
        return [("a", rng.getrandbits(16)), ("b", rng.getrandbits(16)),
                ("cin", rng.getrandbits(1))]

    def _cpu(self, rng, t):
        if t == 0:
            self._words = self.assemble(
                CPU_PROGRAM.format(n=rng.randint(2, 15)))
            return [("RSET", 1), ("iload", 0), ("iaddr", 0), ("idata", 0)]
        if t <= len(self._words):
            return [("RSET", 0), ("iload", 1), ("iaddr", t - 1),
                    ("idata", self._words[t - 1])]
        return [("RSET", 0), ("iload", 0), ("iaddr", rng.getrandbits(4)),
                ("idata", rng.getrandbits(8))]

    @staticmethod
    def _pattern(rng, t):
        bits = [(name, rng.getrandbits(1)) for name in
                ("pattern", "string", "endofpattern", "wild", "resultin")]
        return [("RSET", int(t == 0))] + bits

    def run(self, rec):
        prefix = self.PREFIX
        while True:
            for name, sim in self.sims.items():
                rows, outs, seen = self.rows[name], self.outs[name], \
                    self.seen[name]
                poke, step, peek = sim.poke, sim.step, sim.peek
                c = self.cycles[name]
                for _ in range(self.CHUNK):
                    row = rows[c % self.PERIOD]
                    with rec.op(name):
                        for path, value in row:
                            poke(path, value)
                        step()
                        values = [peek(o) for o in outs]
                    c += 1
                    if c <= prefix:
                        seen.append(values)
                        if c == prefix:
                            self.regs[name] = sim.registers()
                self.cycles[name] = c
            if not rec.more():
                break

    def check(self, chk):
        from repro.core.simulator import Simulator

        for name, sim in self.sims.items():
            ref = Simulator(sim.design, engine="dataflow")
            outs = self.outs[name]
            for t, values in enumerate(self.seen[name]):
                for path, value in self.rows[name][t]:
                    ref.poke(path, value)
                ref.step()
                chk.expect(f"{name} cycle {t}", values,
                           [ref.peek(o) for o in outs])
            if name in self.regs:
                chk.expect(f"{name} registers", self.regs[name],
                           ref.registers())

    def layer_extras(self, rec):
        return {f"cycles_per_s.{name}": len(ts) / sum(ts)
                for name, ts in rec.times.items()}


# ---------------------------------------------------------------------------
# lane-sweep: random-vector sweeps through the lane I/O.
# ---------------------------------------------------------------------------


def lanes_to_ints(per_lane) -> list:
    """``peek_lanes`` rows (LSB first) -> ints, None where undefined."""
    from repro import ONE, ZERO

    out = []
    for bits in per_lane:
        value = 0
        for i, bit in enumerate(bits):
            if bit is ONE:
                value |= 1 << i
            elif bit is not ZERO:
                value = None
                break
        out.append(value)
    return out


class LaneSweep(Workload):
    name = "lane-sweep"

    def setup(self):
        import repro
        from repro.stdlib import programs

        self.lanes = 256 if self.tiny else 16384
        circuit = repro.compile_text(programs.ripple_carry(16), "adder",
                                     name="adder16")
        self.sim = circuit.simulator(engine="codegen", lanes=self.lanes)
        self.wrong = []

    def run(self, rec):
        sim, lanes, rng = self.sim, self.lanes, self.rng
        while True:
            stim = adder_stimulus(rng, lanes)
            with rec.op("adder16", work=lanes):
                for path, values in stim.items():
                    sim.poke_lanes(path, values)
                sim.step()
                s = sim.peek_lanes("s")
                cout = sim.peek_lanes("cout")
            sums = lanes_to_ints(s)
            carries = lanes_to_ints(cout)
            a, b, cin = stim["a"], stim["b"], stim["cin"]
            self.wrong.append(sum(
                1 for k in range(lanes)
                if sums[k] is None or carries[k] is None
                or sums[k] + (carries[k] << 16) != a[k] + b[k] + cin[k]))
            if not rec.more():
                break

    def check(self, chk):
        for i, wrong in enumerate(self.wrong):
            chk.expect(f"round {i} lanes with a wrong a+b+cin", wrong, 0)


# ---------------------------------------------------------------------------
# lane-soak: the compiled kernel alone, lane I/O done in set-up.
# ---------------------------------------------------------------------------


class LaneSoak(Workload):
    name = "lane-soak"
    CYCLES = 32   # cycles per configuration per round

    def setup(self):
        import repro
        from repro.stdlib import programs

        designs = {
            "blackjack": repro.compile_text(programs.BLACKJACK,
                                            name="blackjack"),
            "adder16": repro.compile_text(programs.ripple_carry(16),
                                          "adder", name="adder16"),
        }
        sizes = (("16k", 256), ("64k", 1024)) if self.tiny else \
            (("16k", 16384), ("64k", 65536))
        self.configs = []
        for label, lanes in sizes:
            for design, circuit in designs.items():
                rng = random.Random(f"{self.seed}:{design}:{label}")
                if design == "blackjack":
                    stim = {"ycard": [rng.getrandbits(1)
                                      for _ in range(lanes)],
                            "value": [rng.randint(1, 10)
                                      for _ in range(lanes)]}
                else:
                    stim = adder_stimulus(rng, lanes)
                # backend="auto": int planes at 16k, NumPy at 64k.
                sim = circuit.simulator(engine="codegen", lanes=lanes,
                                        seed=self.seed)
                for path, values in stim.items():
                    sim.poke_lanes(path, values)
                self.configs.append(
                    (f"{design}.{label}", design, sim, stim, lanes))

    def run(self, rec):
        while True:
            for group, design, sim, _stim, lanes in self.configs:
                step = sim.step
                # blackjack restarts from reset every round, so the final
                # state is a fixed CYCLES-cycle run the check can replay.
                if design == "blackjack":
                    sim.poke("RSET", 1)
                    with rec.op(group, work=lanes):
                        step()
                    sim.poke("RSET", 0)
                    todo = self.CYCLES - 1
                else:
                    todo = self.CYCLES
                for _ in range(todo):
                    with rec.op(group, work=lanes):
                        step()
            if not rec.more():
                break

    def check(self, chk):
        from repro.core.simulator import Simulator

        for group, design, sim, stim, lanes in self.configs:
            rng = random.Random(f"{self.seed}:sample:{group}")
            outs = out_names(sim)
            for k in sorted({0, lanes - 1, *rng.sample(range(lanes), 3)}):
                # Lane k behaves like a scalar run seeded seed + k.
                ref = Simulator(sim.design, engine="dataflow",
                                seed=self.seed + k)
                for path, values in stim.items():
                    ref.poke(path, values[k])
                if design == "blackjack":
                    ref.poke("RSET", 1)
                    ref.step()
                    ref.poke("RSET", 0)
                    ref.step(self.CYCLES - 1)
                else:
                    ref.step()
                    want = stim["a"][k] + stim["b"][k] + stim["cin"][k]
                    got = (sim.peek_lane_int("s", k),
                           sim.peek_lane_int("cout", k))
                    chk.expect(f"{group} lane {k} a+b+cin", got,
                               (want & 0xFFFF, want >> 16))
                chk.expect(f"{group} lane {k} outputs",
                           [sim.peek_lane(o, k) for o in outs],
                           [ref.peek(o) for o in outs])
                chk.expect(f"{group} lane {k} registers",
                           sim.registers(lane=k), ref.registers())

    def layer_extras(self, rec):
        out = {}
        for group, _design, _sim, _stim, lanes in self.configs:
            ts = rec.times[group]
            out[f"kernel.ns_per_lane_cycle.{group}"] = (
                sum(ts) / len(ts) / lanes * 1e9)
        return out


# ---------------------------------------------------------------------------
# verify: lint, BMC/k-induction, equivalence and SAT-pruned timing.
# ---------------------------------------------------------------------------

#: Mutations of the full adder that change some output by construction
#: (the carry out drops a half-adder carry), so the mutant pair must be
#: refuted.  Both cost the solver about the same.
ADDER_MUTATIONS = (
    ("cout := OR(h1.cout, h2.cout)", "cout := AND(h1.cout, h2.cout)"),
    ("cout := OR(h1.cout, h2.cout)", "cout := h1.cout"),
)


class Verify(Workload):
    name = "verify"

    def setup(self):
        import repro
        import repro.formal as formal
        import repro.lint as lint
        import repro.timing as timing
        from repro.stdlib import programs

        with open(os.path.join(EXPECTED, "verify.json"),
                  encoding="utf-8") as f:
            self.expected = json.load(f)
        budget = 500 if self.tiny else self.expected["pinned_budget"]

        def lenient(text, top=None, name=None):
            return repro.compile_text(text, top, name=name, strict=False)

        old, new = self.rng.choice(ADDER_MUTATIONS)
        ripple4 = programs.ripple_carry(4)
        pinned = formal.FormalConfig(budget=budget)
        # (kind, key, call, args): the call is looked up on its module
        # at run time, so a traced run sees it through its trace point.
        obs = [("lint", name, (lint, "run_lint"), (lenient(text, None, name),))
               for name, text in sorted(programs.ALL_PROGRAMS.items())]
        for name in ("mux4", "section8", "routing", "chessboard",
                     "falsepath", "trees", "htree"):
            obs.append(("prove", name, (formal, "prove"),
                        (lenient(programs.ALL_PROGRAMS[name], None, name),)))
        obs += [
            ("prove", "ripple4", (formal, "prove"),
             (lenient(programs.ADDERS, "adder4", "ripple4"),)),
            ("prove", "ripple8", (formal, "prove"),
             (lenient(programs.ripple_carry(8), "adder", "ripple8"), None,
              pinned)),
            ("prove", "patternmatch", (formal, "prove"),
             (lenient(programs.PATTERNMATCH, None, "patternmatch"), None,
              pinned)),
            ("equiv", "adder4~adder", (formal, "check_equivalence"),
             (lenient(programs.ADDERS, "adder4", "a"),
              lenient(programs.ADDERS, "adder", "b"))),
            ("equiv", "ripple16~ripple16", (formal, "check_equivalence"),
             (lenient(programs.ripple_carry(16), "adder", "a"),
              lenient(programs.ripple_carry(16), "adder", "b"))),
            ("equiv", "trees.a~trees.b", (formal, "check_equivalence"),
             (lenient(programs.TREES, "a", "a"),
              lenient(programs.TREES, "b", "b"))),
            ("equiv", "ripple4~mutant", (formal, "check_equivalence"),
             (lenient(ripple4, "adder", "a"),
              lenient(ripple4.replace(old, new), "adder", "b"))),
            ("timing", "falsepath", (timing, "analyze_timing"),
             (lenient(programs.FALSEPATH, None, "falsepath"),)),
            ("timing", "ripple16", (timing, "analyze_timing"),
             (lenient(programs.ripple_carry(16), "adder", "ripple16"),)),
            ("timing", "ripple32", (timing, "analyze_timing"),
             (lenient(programs.ripple_carry(32), "adder", "ripple32"),)),
        ]
        self.obligations = obs
        self.results = []   # one {(kind, key): summary} per pass
        self.solver = [0, 0, 0]  # sat_calls, decisions, nodes

    def run(self, rec):
        order = list(self.obligations)
        while True:
            self.rng.shuffle(order)
            results = {}
            for kind, key, (module, fn), args in order:
                call = getattr(module, fn)
                with rec.op(f"{kind}:{key}", work=0):
                    report = call(*args)
                summary = results[(kind, key)] = self._summarize(kind, report)
                rec.add_work(summary["verdicts"])
            self.results.append(results)
            if not rec.more():
                break

    def _summarize(self, kind, report) -> dict:
        if kind == "lint":
            prover = report.prover
            return {"verdicts": 1, "decided": 1,
                    "conflicting": prover.proved_conflicting > 0,
                    "unknown": prover.unknown}
        if kind == "timing":
            return {"verdicts": 1, "decided": 1,
                    "worst_arrival": report.worst_arrival,
                    "min_clock_period": report.min_clock_period,
                    "pruned": len(report.pruned) > 0,
                    "worst_true_delay": max(
                        (p["delay"] for p in report.paths), default=None)}
        stats = report.stats
        self.solver[0] += stats.sat_calls
        self.solver[1] += stats.decisions
        self.solver[2] += stats.nodes
        return {"verdicts": len(report.results),
                "decided": sum(1 for r in report.results
                               if r.verdict != "unknown"),
                "verdict": {r.prop: r.verdict for r in report.results},
                "unreplayed": sorted(
                    r.prop for r in report.results
                    if r.verdict == "counterexample"
                    and not r.counterexample.replay_confirmed)}

    def check(self, chk):
        exp = self.expected
        for i, results in enumerate(self.results):
            for (kind, key), got in sorted(results.items()):
                if kind == "lint":
                    want = exp["lint"][key]
                    chk.expect(f"pass {i} lint {key}",
                               (got["conflicting"], got["unknown"]),
                               (want["conflicting"], 0))
                elif kind == "timing":
                    want = exp["timing"][key]
                    for field in ("worst_arrival", "min_clock_period",
                                  "pruned"):
                        chk.expect(f"pass {i} timing {key} {field}",
                                   got[field], want[field])
                    if want["pruned"]:
                        chk.expect(f"pass {i} timing {key} true path below "
                                   "the raw worst arrival",
                                   got["worst_true_delay"]
                                   < got["worst_arrival"], True)
                else:
                    allowed = exp[kind][key]["verdicts"]
                    chk.expect(f"pass {i} {key} properties",
                               sorted(got["verdict"]), sorted(allowed))
                    for prop, verdict in got["verdict"].items():
                        if verdict not in allowed.get(prop, ()):
                            chk.fail(f"pass {i} {key} {prop}: {verdict} "
                                     f"not in {allowed.get(prop)}")
                    chk.expect(f"pass {i} {key} counterexamples replayed",
                               got["unreplayed"], [])

    def layer_extras(self, rec):
        passes = len(self.results)
        last = self.results[-1].values()
        return {
            "formal.sat_calls": self.solver[0] / passes,
            "formal.decisions": self.solver[1] / passes,
            "formal.nodes": self.solver[2] / passes,
            "formal.decided_ratio": (sum(r["decided"] for r in last)
                                     / sum(r["verdicts"] for r in last)),
        }


# ---------------------------------------------------------------------------
# serve: zeusd under a closed loop of keep-alive clients.
# ---------------------------------------------------------------------------

#: Requests per block of 20, shuffled per block: the mix is exact in
#: every run and only the order depends on the seed.
SERVE_MIX = (("compile_hit", 9), ("compile_miss", 2), ("sim", 4),
             ("session_step", 3), ("pool", 2))
SEEN = ("adders", "mux4", "trees", "routing", "chessboard", "falsepath")


class Serve(Workload):
    name = "serve"
    concurrent = True
    CLIENTS = 2
    SIM_CYCLES = 200
    SESSION_CYCLES = 10

    def setup(self):
        from repro.service.client import ZeusClient
        from repro.stdlib import programs

        self.programs = programs
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "2"],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            text=True, start_new_session=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"zeusd did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        self.clients = [ZeusClient(self.port, timeout=60)
                        for _ in range(self.CLIENTS)]
        status, _ = self.clients[0].health()
        if status != 200:
            raise RuntimeError(f"zeusd health answered {status}")

    def warm(self):
        programs = self.programs
        first = self.clients[0]
        for name in SEEN:
            first.compile(programs.ALL_PROGRAMS[name])
        first.sim(programs.BLACKJACK, cycles=1)
        first.prove(programs.MUX4)
        first.timing(programs.FALSEPATH)
        # Each client drives one blackjack session: reset, then deal.  The
        # sessions sit on separate muxes (one source each): zeusd's
        # coalescing stepper takes a cycle from a session that joins while
        # another session's pass is running, so concurrent steps on one
        # mux return short.
        self.sessions = []
        for i, client in enumerate(self.clients):
            _, body = client.open_session(
                programs.BLACKJACK + f"\n<* session {i} *>\n", seed=i)
            sid = body["session"]
            value = self.rng.randint(1, 10)
            client.session(sid, "poke", {"path": "RSET", "value": 1})
            client.session(sid, "step", {"cycles": 1})
            for path, v in (("RSET", 0), ("ycard", 1), ("value", value)):
                client.session(sid, "poke", {"path": path, "value": v})
            self.sessions.append((sid, value))
        self.plans = [self._sim_plan(random.Random(f"{self.seed}:plan:{i}"))
                      for i in range(8)]
        self.logs = [[] for _ in self.clients]

    def _sim_plan(self, rng) -> list:
        plan = [(0, "RSET", 1), (1, "RSET", 0), (1, "ycard", 1)]
        for cycle in sorted(rng.sample(range(1, self.SIM_CYCLES), 10)):
            plan.append((cycle, "value", rng.randint(1, 10)))
        return plan

    def _client(self, i, rec):
        programs = self.programs
        client = self.clients[i]
        sid, _ = self.sessions[i]
        rng = random.Random(f"{self.seed}:client{i}")
        block = [kind for kind, n in SERVE_MIX for _ in range(n)]
        log = self.logs[i]
        sent = 0
        while rec.more():
            rng.shuffle(block)
            for kind in block:
                sent += 1
                if kind == "compile_hit":
                    key = rng.choice(SEEN)
                    req = ("POST", "/v1/compile",
                           {"source": programs.ALL_PROGRAMS[key]})
                elif kind == "compile_miss":
                    key = f"{self.seed}-{i}-{sent}"
                    req = ("POST", "/v1/compile",
                           {"source": programs.BLACKJACK
                            + f"\n<* nonce {key} *>\n"})
                elif kind == "sim":
                    key = rng.randrange(len(self.plans))
                    req = ("POST", "/v1/sim",
                           {"source": programs.BLACKJACK,
                            "cycles": self.SIM_CYCLES,
                            "pokes": self.plans[key]})
                elif kind == "session_step":
                    key = sid
                    req = ("POST", f"/v1/session/{sid}/step",
                           {"cycles": self.SESSION_CYCLES})
                else:
                    key = rng.choice(("prove", "timing"))
                    source = programs.MUX4 if key == "prove" \
                        else programs.FALSEPATH
                    req = ("POST", f"/v1/{key}", {"source": source})
                with rec.op(kind), rec.span("service", kind):
                    status, body = client.request(*req)
                log.append((kind, key, status, body))

    def run(self, rec):
        errors = []

        def target(i):
            try:
                self._client(i, rec)
            except Exception as exc:  # noqa: BLE001 -- re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=target, args=(i,))
                   for i in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=rec.seconds + 120)
        if errors:
            raise errors[0]
        if any(t.is_alive() for t in threads):
            raise RuntimeError("serve clients did not finish")
        self.rss = self._daemon_hwm_mb()

    def _daemon_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for zeusd")

    def peak_rss(self):
        return self.rss

    def check(self, chk):
        import repro
        from repro.core.simulator import Simulator
        from repro.formal import prove
        from repro.timing import analyze_timing

        programs = self.programs
        designs = {}
        for name in SEEN:
            c = repro.compile_text(programs.ALL_PROGRAMS[name])
            designs[name] = {"name": c.name, **c.stats()}
        bj = repro.compile_text(programs.BLACKJACK)
        designs["blackjack"] = {"name": bj.name, **bj.stats()}
        ports = [p.name for p in bj.netlist.ports]
        sims = {}
        for k, plan in enumerate(self.plans):
            ref = Simulator(bj.design, engine="dataflow", strict=False)
            for t in range(self.SIM_CYCLES):
                for cycle, path, value in plan:
                    if cycle == t:
                        ref.poke(path, value)
                ref.step()
            sims[k] = ({p: [str(b) for b in ref.peek(p)] for p in ports},
                       [(v.cycle, v.net) for v in ref.violations])
        pool = {
            "prove": [(r.prop, r.verdict) for r in
                      prove(repro.compile_text(programs.MUX4)).results],
            "timing": analyze_timing(
                repro.compile_text(programs.FALSEPATH)).to_dict()["summary"],
        }
        for i, log in enumerate(self.logs):
            cycle = 1
            for n, (kind, key, status, body) in enumerate(log):
                what = f"client {i} request {n} {kind}"
                if status != 200:
                    chk.fail(f"{what}: HTTP {status} {body}")
                    continue
                if kind.startswith("compile"):
                    chk.expect(what, (body["cached"], body["design"]),
                               (kind == "compile_hit",
                                designs["blackjack" if kind == "compile_miss"
                                        else key]))
                elif kind == "sim":
                    chk.expect(what, (body["signals"], [
                        (v["cycle"], v["net"]) for v in body["violations"]]),
                        sims[key])
                elif kind == "session_step":
                    cycle += self.SESSION_CYCLES
                    chk.expect(what, (body["cycle"], body["violations"]),
                               (cycle, []))
                elif key == "prove":
                    chk.expect(what, [(r["property"], r["verdict"])
                                      for r in body["report"]["results"]],
                               pool["prove"])
                else:
                    chk.expect(what, body["report"]["summary"],
                               pool["timing"])
            self._check_session(chk, i, bj, cycle)

    def _check_session(self, chk, i, bj, cycles):
        """The session lane against a scalar dataflow run with the same
        seed, pokes and cycle count."""
        from repro.core.simulator import Simulator

        sid, value = self.sessions[i]
        client = self.clients[i]
        ref = Simulator(bj.design, engine="dataflow", strict=False, seed=i)
        ref.poke("RSET", 1)
        ref.step()
        for path, v in (("RSET", 0), ("ycard", 1), ("value", value)):
            ref.poke(path, v)
        ref.step(cycles - 1)
        for port in out_names(bj):
            status, body = client.session(sid, "peek", {"path": port})
            chk.expect(f"session {i} {port}", (status, body.get("bits")),
                       (200, [str(b) for b in ref.peek(port)]))
        status, body = client.session(sid, "registers")
        chk.expect(f"session {i} registers", (status, body.get("registers")),
                   (200, {k: str(v) for k, v in ref.registers().items()}))

    def layer_extras(self, rec):
        out = {}
        for kind, ts in rec.times.items():
            out[f"service.{kind}.ms.p50"] = percentile(ts, 50) * 1e3
            out[f"service.{kind}.ms.p90"] = percentile(ts, 90) * 1e3
        _, report = self.clients[0].metrics()
        service = report["service"]
        muxes = service["sessions"]["muxes"]
        out["service.cache_hit_ratio"] = service["cache"]["hit_rate"]
        out["service.shed"] = service["requests"]["shed"]
        out["service.lane_occupancy"] = (
            sum(m["occupied"] for m in muxes)
            / max(1, sum(m["lanes"] for m in muxes)))
        return out

    def close(self):
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        for client in getattr(self, "clients", ()):
            client.close()
        # SIGINT lets the daemon shut its pool down; the group kill then
        # takes any worker that is left.
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()


WORKLOADS = {cls.name: cls for cls in (
    Compile, ColdSim, SimScalar, LaneSweep, LaneSoak, Verify, Serve)}
