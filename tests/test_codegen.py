"""The exec-compiled codegen engine (:mod:`repro.core.codegen`).

Covers:

* opcode agreement with :data:`repro.core.values.GATE_FUNCTIONS` over
  every ``4^k`` operand combination (hypothesis drives random mixes);
* the lazy NOINFL amplification path (a guarded driver left off feeds
  NOINFL into a gate, which must read it as UNDEF);
* a generated-source golden file for one stdlib design (mux4) so
  unintended emission changes show up in review;
* the exotic-poke contract: pokes on COPY, CONST and multiplex
  destinations and NOINFL input lanes compile into the kernel (one
  kernel per distinct poked set) and match per-lane dataflow runs;
* RANDOM draws and frozen-lane rng snapshots at 4099 lanes against
  scalar runs seeded ``seed + k``;
* the differential fuzz slice (dataflow oracle, levelized, codegen);
* a lane count above 65536 that is not a multiple of 64;
* the flight-recorder ``reset``/rebind regressions (stale pre-reset
  snapshots must never leak into a later explain window).
"""

import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.fuzzgen import differential_check, generate_program
from repro.core.codegen import CompiledStep, compile_step
from repro.core.schedule import OPC_CLASS, OPC_CONST, OPC_COPY
from repro.core.values import GATE_FUNCTIONS, Logic
from repro.lang.errors import SimulationError
from repro.obs.flight import FlightRecorder
from repro.stdlib import programs
from repro.testbench import Testbench
from zeus_test_utils import compile_ok

import itertools

ALL_LOGIC = [Logic.ZERO, Logic.ONE, Logic.UNDEF, Logic.NOINFL]

GOLDEN = pathlib.Path(__file__).parent / "golden" / "mux4_codegen_int.txt"


def _codegen_sim(circuit, lanes, **kw):
    sim = circuit.simulator(engine="codegen", lanes=lanes, **kw)
    assert sim._cg is not None, sim.engine_reason
    return sim


# -- one plane representation ---------------------------------------------


class TestHelpers:
    def test_unknown_backend_raises(self):
        """Planes are Python ints at every lane count: no entry point
        takes a ``backend=`` option."""
        circuit = compile_ok(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            BEGIN y := NOT a END;
            SIGNAL u: t;
            """
        )
        with pytest.raises(TypeError, match="backend"):
            circuit.simulator(engine="codegen", lanes=2, backend="int")
        with pytest.raises(TypeError, match="backend"):
            Testbench(circuit, lanes=2, engine="codegen", backend="int")
        sched = circuit.simulator(engine="batched", lanes=2)._schedule
        with pytest.raises(TypeError, match="backend"):
            compile_step(sched, backend="int")

    def test_lane_kernel_imports_no_numpy(self):
        """A fresh interpreter: the scalar path never loads the codegen
        module, and the lane kernel loads no NumPy."""
        probe = (
            "import sys, repro\n"
            "from repro.stdlib import programs\n"
            "c = repro.compile_text(programs.ALL_PROGRAMS['mux4'])\n"
            "c.simulator().step()\n"
            "assert 'repro.core.codegen' not in sys.modules\n"
            "c.simulator(engine='codegen', lanes=70000).step()\n"
            "assert 'repro.core.codegen' in sys.modules\n"
            "assert 'numpy' not in sys.modules\n"
        )
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                       timeout=120)


# -- opcode agreement (mirrors tests/test_batched.py for codegen) ---------


_HALFADDER_CACHE = []


def _halfadder():
    if not _HALFADDER_CACHE:
        _HALFADDER_CACHE.append(compile_ok(
            """
            TYPE halfadder = COMPONENT (IN a,b: boolean;
                                        OUT cout,s: boolean) IS
            BEGIN
                s := XOR(a,b);
                cout := AND(a,b)
            END;
            SIGNAL h: halfadder;
            """
        ))
    return _HALFADDER_CACHE[0]


def _gate_circuit(op, arity):
    ins = ", ".join(f"i{k}" for k in range(arity))
    expr = "NOT i0" if op == "NOT" else f"{op}({ins})"
    return compile_ok(
        f"""
        TYPE t = COMPONENT (IN {ins}: boolean; OUT y: boolean) IS
        BEGIN
            y := {expr}
        END;
        SIGNAL u: t;
        """
    )


GATE_CASES = [
    ("AND", 2), ("AND", 3),
    ("OR", 2), ("OR", 3),
    ("NAND", 2), ("NAND", 3),
    ("NOR", 2), ("NOR", 3),
    ("XOR", 2), ("XOR", 3),
    ("EQUAL", 2),
    ("NOT", 1),
]


class TestOpcodeAgreement:
    @pytest.mark.parametrize("op,arity", GATE_CASES)
    def test_all_operand_combinations(self, op, arity):
        """One lane per element of {0,1,UNDEF,NOINFL}^arity: the
        compiled function must reproduce the scalar gate table."""
        circuit = _gate_circuit(op, arity)
        combos = list(itertools.product(ALL_LOGIC, repeat=arity))
        sim = _codegen_sim(circuit, len(combos))
        for j in range(arity):
            sim.poke_lanes(f"i{j}", [combo[j] for combo in combos])
        sim.step()
        got = [vals[0] for vals in sim.peek_lanes("y")]
        for k, combo in enumerate(combos):
            expected = GATE_FUNCTIONS[op](list(combo))
            assert got[k] is expected, (
                f"{op}{combo}: codegen lane {k} gave "
                f"{got[k]}, scalar table says {expected}"
            )

    def test_equal_against_constants(self):
        """EQUAL with a constant operand exercises the constant-folded
        emission path (``x ^ 0``/``x & M`` elided)."""
        for const in ("0", "1"):
            circuit = compile_ok(
                f"""
                TYPE t = COMPONENT (IN i0: boolean; OUT y: boolean) IS
                BEGIN y := EQUAL(i0, {const}) END;
                SIGNAL u: t;
                """
            )
            sim = _codegen_sim(circuit, len(ALL_LOGIC))
            sim.poke_lanes("i0", ALL_LOGIC)
            sim.step()
            got = [v[0] for v in sim.peek_lanes("y")]
            for k, value in enumerate(ALL_LOGIC):
                ref = circuit.simulator(engine="dataflow")
                ref.poke("i0", value)
                ref.step()
                assert got[k] is ref.peek("y")[0], (const, value)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30, deadline=None)
    def test_random_lane_mix_halfadder(self, seed):
        """Random 4-valued stimuli on the halfadder: every codegen lane
        equals a scalar dataflow run with that lane's pokes."""
        import random as _random

        circuit = _halfadder()
        rng = _random.Random(seed)
        lanes = rng.randint(1, 9)
        a = [rng.choice(ALL_LOGIC) for _ in range(lanes)]
        b = [rng.choice(ALL_LOGIC) for _ in range(lanes)]
        sim = _codegen_sim(circuit, lanes)
        sim.poke_lanes("a", a)
        sim.poke_lanes("b", b)
        sim.step()
        s = sim.peek_lanes("s")
        cout = sim.peek_lanes("cout")
        for k in range(lanes):
            ref = circuit.simulator(engine="dataflow")
            ref.poke("a", a[k])
            ref.poke("b", b[k])
            ref.step()
            assert [str(v) for v in ref.peek("s")] == [str(v) for v in s[k]]
            assert [str(v) for v in ref.peek("cout")] == [
                str(v) for v in cout[k]
            ]


# -- the NOINFL amplification path ----------------------------------------


class TestAmplification:
    NOINFL_FEED = """
    TYPE t = COMPONENT (IN a, g: boolean; OUT y: boolean) IS
    SIGNAL p: multiplex;
    BEGIN
        IF g THEN p := 1 END;
        y := AND(a, p)
    END;
    SIGNAL u: t;
    """

    def test_off_guard_noinfl_reads_as_undef(self):
        """With the guard off, ``p`` is NOINFL; the gate input must
        amplify it to UNDEF exactly as the interpreters do."""
        circuit = compile_ok(self.NOINFL_FEED)
        cases = [(a, g) for a in ALL_LOGIC for g in (Logic.ZERO, Logic.ONE)]
        sim = _codegen_sim(circuit, len(cases))
        sim.poke_lanes("a", [a for a, _ in cases])
        sim.poke_lanes("g", [g for _, g in cases])
        sim.step()
        got = [v[0] for v in sim.peek_lanes("y")]
        for k, (a, g) in enumerate(cases):
            ref = circuit.simulator(engine="dataflow")
            ref.poke("a", a)
            ref.poke("g", g)
            ref.step()
            assert got[k] is ref.peek("y")[0], (a, g)


# -- generated-source golden ----------------------------------------------


class TestGeneratedSource:
    def _mux4_step(self):
        circuit = repro.compile_text(programs.ALL_PROGRAMS["mux4"], name="mux4")
        return compile_step(circuit.simulator(engine="batched", lanes=8)
                            ._schedule)

    def test_mux4_matches_golden(self):
        """The emitted source for the stdlib mux4 design.
        On an intended emitter change, regenerate with
        ``CompiledStep.source`` and update the golden file."""
        step = self._mux4_step()
        assert step.source == GOLDEN.read_text(), (
            "generated source drifted from tests/golden/"
            "mux4_codegen_int.txt -- if the emission change is "
            "intended, rewrite the golden file from CompiledStep.source"
        )

    def test_source_shape(self):
        """Structural invariants the emitter must keep: a single
        function, locals-only dataflow, no per-opcode dispatch, and a
        bulk store of both planes."""
        step = self._mux4_step()
        src = step.source
        assert src.startswith("def zeus_step(")
        assert "for op in" not in src  # no interpreter dispatch loop
        assert "vals0[:] = [" in src and "vals1[:] = [" in src
        assert isinstance(step, CompiledStep)
        assert step.n_ops > 0
        # no exotic poke: the kernel reads only input-default pokes
        assert "get_poke(" in src and "pokes[" not in src


# -- exotic pokes: compiled into the kernel -------------------------------


#: One class of every exotically pokeable kind: ``c`` is a COPY
#: destination, ``k`` a CONST destination, ``p`` a two-driver multiplex
#: class and ``io`` a multiplex INOUT pin; the input ``a`` is exotic
#: when poked NOINFL.
EXOTIC = """
TYPE t = COMPONENT (IN a, b, g: boolean; OUT y, v, w: boolean;
                    io: multiplex) IS
SIGNAL c, k: boolean; p: multiplex;
BEGIN
    c := AND(a, b);
    k := 1;
    IF g THEN p := a END;
    IF b THEN p := 0 END;
    IF a THEN io := b END;
    y := XOR(c, a);
    v := AND(k, b);
    w := NOR(p, io)
END;
SIGNAL u: t;
"""

#: poked path -> the schedule opcode producing its class (None: input).
EXOTIC_KINDS = {
    "u.c": OPC_COPY, "u.k": OPC_CONST, "u.p": OPC_CLASS, "u.io": OPC_CLASS,
    "u.a": None,
}
EXOTIC_WATCH = ("u.y", "u.v", "u.w", "u.c", "u.k", "u.p", "u.io")
#: One lane's poke of the exotic path (None: that lane is not poked).
EXOTIC_POKES = [None, Logic.ZERO, Logic.ONE, Logic.UNDEF, Logic.NOINFL]


def _exotic_pokes(path, k, cycle):
    """Lane *k*'s pokes in *cycle*: the inputs from 0/1/UNDEF, then
    *path* from EXOTIC_POKES; cycle 2 releases *path* on every lane."""
    rnd = random.Random(k * 3 + cycle)
    pokes = {name: rnd.choice(ALL_LOGIC[:3]) for name in ("u.a", "u.b", "u.g")}
    pokes[path] = rnd.choice(EXOTIC_POKES) if cycle < 2 else None
    return pokes


def _producer(sim, path):
    """The opcode producing *path*'s class (None for an input)."""
    (net,) = sim.nets_of(path)
    i = sim._idx(net)
    if i in {j for j, _ in sim._schedule.input_defaults}:
        return None
    return next(op[0] for op in sim._schedule.ops
                if op[0] in (OPC_COPY, OPC_CONST, OPC_CLASS) and op[1] == i)


def _violations(violations, lane=None):
    """The (cycle, net) violation set the fuzz harness compares: with
    three drivers the engines name different prior values."""
    return sorted((v.cycle, v.net) for v in violations if v.lane == lane)


class TestExoticPokes:
    """Pokes the input-default merge cannot express compile into a
    kernel of their own; every lane must equal a dataflow run."""

    @pytest.mark.parametrize("lanes", [1, 64, 4099])
    @pytest.mark.parametrize("path", sorted(EXOTIC_KINDS))
    def test_lanes_match_dataflow(self, path, lanes):
        circuit = compile_ok(EXOTIC)
        sim = _codegen_sim(circuit, lanes, strict=False)
        assert _producer(sim, path) == EXOTIC_KINDS[path]
        rows = []
        for cycle in range(3):
            stim = [_exotic_pokes(path, k, cycle) for k in range(lanes)]
            for name in stim[0]:
                sim.poke_lanes(name, [pokes[name] for pokes in stim])
            sim.step()
            rows.append({w: sim.peek_lanes(w) for w in EXOTIC_WATCH})
        (net,) = sim.nets_of(path)
        if lanes > 1:  # one lane may draw no exotic value
            assert any(sim._idx(net) in key for key in sim._kernels)
        conflicted = sorted({v.lane for v in sim.violations})
        sample = set(range(min(lanes, 64))) | set(conflicted[:4])
        sample |= {lanes // 2, lanes - 2, lanes - 1}
        for k in sorted(lane for lane in sample if lane >= 0):
            ref = circuit.simulator(engine="dataflow", strict=False)
            for cycle in range(3):
                for name, value in _exotic_pokes(path, k, cycle).items():
                    if value is None:
                        ref.unpoke(name)
                    else:
                        ref.poke(name, value)
                ref.step()
                for w in EXOTIC_WATCH:
                    assert rows[cycle][w][k] == ref.peek(w), (k, cycle, w)
            assert _violations(sim.violations, k) == _violations(
                ref.violations), k

    @pytest.mark.parametrize("lanes", [1, 64, 4099])
    @pytest.mark.parametrize("path", ["u.c", "u.k", "u.p", "u.io"])
    def test_strict_error_names_lowest_conflicting_lane(self, path, lanes):
        """a=1, b=0, g=1 makes every producer drive exactly once, so a
        driving poke conflicts on precisely the lanes it covers."""
        circuit = compile_ok(EXOTIC)
        first = lanes // 2
        drive = {"u.a": 1, "u.b": 0, "u.g": 1}
        sim = _codegen_sim(circuit, lanes)
        for name, value in drive.items():
            sim.poke(name, value)
        sim.poke_lanes(path, [None] * first + [Logic.ZERO] * (lanes - first))
        with pytest.raises(
            SimulationError,
            match=rf"signal '{path}' in cycle 0 \(lane {first}\)",
        ):
            sim.step()
        # The oracle: the unpoked lanes run clean, a poked one burns.
        ref = circuit.simulator(engine="dataflow")
        for name, value in drive.items():
            ref.poke(name, value)
        ref.step()
        ref.poke(path, Logic.ZERO)
        with pytest.raises(SimulationError, match="burn"):
            ref.step()

    def test_each_poked_set_compiles_once(self, monkeypatch):
        """poke -> unpoke -> re-poke reuses the cached kernels; the
        Simulator finds ``compile_step`` on the codegen module at call
        time, so a wrapper there sees every compile."""
        import repro.core.codegen as codegen

        compiled = []
        real = codegen.compile_step

        def counting(sched, **kw):
            compiled.append(kw.get("poked", frozenset()))
            return real(sched, **kw)

        monkeypatch.setattr(codegen, "compile_step", counting)
        circuit = compile_ok(EXOTIC)
        sim = circuit.simulator(engine="batched", lanes=4, strict=False)
        assert compiled == [frozenset()]
        for _ in range(2):
            sim.poke("u.p", 1)
            sim.step()
            sim.unpoke("u.p")
            sim.step()
        sim.poke_lanes("u.a", [Logic.NOINFL, 1, 0, None])  # exotic input
        sim.step()
        sim.poke_lane("u.p", 2, 0)
        sim.step()
        sim.poke_lanes("u.a", [1, 1, 0, None])  # plain again
        sim.step()
        p, a = (sim._idx(sim.nets_of(path)[0]) for path in ("u.p", "u.a"))
        assert compiled == [
            frozenset(), frozenset({p}), frozenset({a}), frozenset({a, p}),
        ]
        assert set(sim._kernels) == set(compiled)
        assert sim._cg is sim._kernels[frozenset({p})]

    def test_noinfl_lane_poke_is_exotic_but_correct(self):
        circuit = _gate_circuit("AND", 2)
        sim = _codegen_sim(circuit, 4)
        i0 = [Logic.NOINFL, Logic.ONE, Logic.ZERO, Logic.ONE]
        sim.poke_lanes("i0", i0)
        sim.poke_lanes("i1", [Logic.ONE] * 4)
        sim.step()
        got = [v[0] for v in sim.peek_lanes("y")]
        for k, value in enumerate(i0):
            ref = circuit.simulator(engine="dataflow")
            ref.poke("i0", value)
            ref.poke("i1", Logic.ONE)
            ref.step()
            assert got[k] is ref.peek("y")[0], k


# -- RANDOM draws are one lane column ------------------------------------


RANDOM_SHIFT = """
TYPE t = COMPONENT (OUT y: boolean) IS
SIGNAL r1, r2, r3: REG;
BEGIN
    r1.in := RANDOM();
    r2.in := r1.out;
    r3.in := r2.out;
    y := XOR(r3.out, RANDOM())
END;
SIGNAL u: t;
"""


def _guarded_mux(n_drivers):
    """One multiplex ``u.p`` with *n_drivers* guarded drivers
    ``IF gI THEN p := sI END`` (every guard and source an input), and
    the input names."""
    inputs = [f"g{i}" for i in range(n_drivers)] + [
        f"s{i}" for i in range(n_drivers)]
    body = "".join(f"    IF g{i} THEN p := s{i} END;\n"
                   for i in range(n_drivers))
    text = (
        f"TYPE t = COMPONENT (IN {', '.join(inputs)}: boolean; "
        "OUT y: boolean) IS\n"
        "SIGNAL p: multiplex;\n"
        f"BEGIN\n{body}    y := p\nEND;\nSIGNAL u: t;\n"
    )
    return compile_ok(text), [f"u.{name}" for name in inputs]


class TestConflictRecords:
    """Every {0, 1, UNDEF} input of a multiplex net with three and with
    four guarded drivers, one non-strict cycle each.  After a lane's
    first conflict the kernel reports the resolved UNDEF as the prior
    value, like the scalar engines: its records (net and values, in
    order) equal levelized's, and peeks and (cycle, net) sets equal
    dataflow's."""

    @pytest.mark.parametrize("n_drivers", [3, 4])
    def test_sweep(self, n_drivers):
        circuit, inputs = _guarded_mux(n_drivers)
        vectors = list(itertools.product(ALL_LOGIC[:3], repeat=len(inputs)))
        kernel = _codegen_sim(circuit, len(vectors), strict=False)
        for path, column in zip(inputs, zip(*vectors)):
            kernel.poke_lanes(path, list(column))
        kernel.step()
        scalar = {engine: circuit.simulator(engine=engine, strict=False)
                  for engine in ("levelized", "dataflow")}
        peeks = {engine: [] for engine in scalar}
        for vector in vectors:
            for engine, sim in scalar.items():
                for path, value in zip(inputs, vector):
                    sim.poke(path, value)
                sim.step()
                peeks[engine].append((sim.peek("u.p"), sim.peek("u.y")))
        records = {engine: [[] for _ in vectors] for engine in scalar}
        for engine, sim in scalar.items():
            for v in sim.violations:
                records[engine][v.cycle].append((v.net, v.values))
        lane_records = [[] for _ in vectors]
        for v in kernel.violations:
            lane_records[v.lane].append((v.net, v.values))
        assert sum(map(bool, lane_records)) > 0
        for k in range(len(vectors)):
            assert lane_records[k] == records["levelized"][k], vectors[k]
            assert peeks["dataflow"][k] == peeks["levelized"][k], vectors[k]
            assert peeks["dataflow"][k] == (
                kernel.peek_lane("u.p", k), kernel.peek_lane("u.y", k))
            assert ({net for net, _ in records["dataflow"][k]}
                    == {net for net, _ in lane_records[k]}), vectors[k]


class TestRandomLanes:
    LANES = 4099

    def test_draws_and_frozen_lanes_match_scalar_seeds(self):
        """Lane k consumes ``random.Random(seed + k)`` in gate order,
        and a lane frozen by ``step_lanes`` neither draws nor latches."""
        circuit = compile_ok(RANDOM_SHIFT)
        seed = 5
        sim = _codegen_sim(circuit, self.LANES, seed=seed)
        sim.step(2)
        frozen = {1, 64, 2050, 4097}
        fmask = sum(1 << k for k in frozen)
        sim.step_lanes(sim._lane_mask & ~fmask, cycles=3)
        sim.step()
        for k in (0, 1, 2, 63, 64, 2049, 2050, 4096, 4097, 4098):
            ref = circuit.simulator(engine="dataflow", seed=seed + k)
            ref.step(3 if k in frozen else 6)
            assert sim.peek_lane("u.y", k) == ref.peek("u.y"), k
            assert sim.registers(lane=k) == ref.registers(), k


# -- registers and reset --------------------------------------------------


class TestStateful:
    REGGED = """
    TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
    SIGNAL r: REG;
    BEGIN
        IF RSET THEN r.in := 0 ELSE r.in := NOT r.out END;
        y := AND(a, r.out)
    END;
    SIGNAL u: t;
    """

    def test_register_stream_matches_dataflow(self):
        circuit = compile_ok(self.REGGED)
        a = [1, 1, 0]
        sim = _codegen_sim(circuit, 3)
        sim.poke_lanes("a", a)
        refs = [circuit.simulator(engine="dataflow") for _ in a]
        for ref, value in zip(refs, a):
            ref.poke("a", value)
        for s in (sim, *refs):
            s.poke("RSET", 1)
            s.step(2)
            s.poke("RSET", 0)
        for _ in range(6):
            for s in (sim, *refs):
                s.step()
            for k, ref in enumerate(refs):
                assert sim.peek_lane("y", k) == ref.peek("y"), k
                assert sim.registers(lane=k) == ref.registers(), k

    def test_reset_state_restarts_the_run(self):
        circuit = compile_ok(self.REGGED)
        sim = _codegen_sim(circuit, 2)

        def run():
            sim.poke_lanes("a", [1, 0])
            sim.poke("RSET", 1)
            sim.step(2)
            sim.poke("RSET", 0)
            sim.step(3)
            return (
                [[str(v) for v in lane] for lane in sim.peek_lanes("y")],
                {k: str(v) for k, v in sim.registers().items()},
            )

        first = run()
        sim.reset_state()
        assert sim.cycle == 0
        assert run() == first


# -- lane counts past 65536 ------------------------------------------------


class TestWideLanes:
    LANES = 65600  # above 65536 and not a multiple of 64

    def test_section8_lanes_match_dataflow(self):
        """section8 (a register, a two-driver multiplex output) on the
        compiled kernel at 65600 lanes: broadcast pokes, three lanes
        with their own values -- one of them a driver conflict above
        lane 65536 -- each equal to a dataflow run with its pokes."""
        circuit = repro.compile_text(programs.ALL_PROGRAMS["section8"],
                                     name="section8")
        sim = _codegen_sim(circuit, self.LANES, strict=False)
        broadcast = {"a": 1, "b": 0, "c": 1, "x": 1, "y": 0, "rin": 1}
        own = {
            0: {"x": 0, "y": 1, "rin": 0},
            65535: {"a": 1, "b": 1},
            65599: {"y": 1},  # x = y = 1: both drivers fire
        }
        for path, value in broadcast.items():
            sim.poke(path, value)
        for lane, pokes in own.items():
            for path, value in pokes.items():
                sim.poke_lane(path, lane, value)
        sim.step(2)
        assert set(sim._kernels) == {frozenset()}  # no exotic poke
        assert {v.lane for v in sim.violations} == {65599}
        for lane in (0, 1, 65535, 65536, 65599):
            ref = circuit.simulator(engine="dataflow", strict=False)
            for path, value in {**broadcast, **own.get(lane, {})}.items():
                ref.poke(path, value)
            ref.step(2)
            for path in ("out", "rout"):
                assert sim.peek_lane(path, lane) == ref.peek(path), (
                    lane, path)
            assert sim.registers(lane=lane) == ref.registers(), lane
            # Engines may list a conflict's two values in either order.
            assert [
                (v.cycle, v.net, sorted(v.values))
                for v in sim.violations if v.lane == lane
            ] == [
                (v.cycle, v.net, sorted(v.values)) for v in ref.violations
            ], lane


# -- differential fuzz slice -----------------------------------------------


@pytest.mark.fuzz
class TestFourEngineDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_full_repertoire_slice(self, seed):
        """dataflow (oracle) vs levelized vs codegen, lane by lane,
        over the extended generator's repertoire."""
        prog = generate_program(seed)
        result = differential_check(prog.text, seed=seed)
        assert result, f"seed {seed}: {result.detail}\n{prog.text}"


# -- flight recorder regressions (reset + rebind) -------------------------


class TestFlightRecorderReset:
    SRC = TestStateful.REGGED

    def _run(self, sim, cycles):
        sim.poke("RSET", 1)
        sim.step(1)
        sim.poke("RSET", 0)
        sim.poke("a", 1)
        sim.step(cycles - 1)

    def test_reset_state_clears_ring_events_and_dropped(self):
        circuit = compile_ok(self.SRC)
        sim = circuit.simulator(flight=2)
        self._run(sim, 5)
        assert len(sim.flight) == 2
        assert sim.flight.dropped == 3
        assert list(sim.flight.events())
        sim.reset_state()
        assert len(sim.flight) == 0
        assert sim.flight.dropped == 0
        assert not list(sim.flight.events())
        # a fresh run records only post-reset cycles
        self._run(sim, 1)
        assert [rec.cycle for rec in sim.flight.records] == [0]

    def test_reset_drops_cached_producer_map(self):
        circuit = compile_ok(self.SRC)
        sim = circuit.simulator(flight=4)
        self._run(sim, 2)
        sim.flight.producers()
        assert sim.flight._producers is not None
        sim.reset_state()
        assert sim.flight._producers is None

    def test_rebinding_recorder_drops_previous_sim_history(self):
        recorder = FlightRecorder(8)
        first = compile_ok(self.SRC).simulator(flight=recorder)
        self._run(first, 12)
        assert recorder.dropped > 0 and len(recorder) == 8
        recorder.producers()
        other = compile_ok(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            BEGIN y := NOT a END;
            SIGNAL u: t;
            """
        ).simulator(flight=recorder)
        assert recorder.sim is other
        assert len(recorder) == 0
        assert recorder.dropped == 0
        assert recorder._producers is None

    def test_rebinding_same_sim_is_a_noop(self):
        recorder = FlightRecorder(8)
        sim = compile_ok(self.SRC).simulator(flight=recorder)
        self._run(sim, 3)
        kept = len(recorder)
        recorder.bind(sim)
        assert len(recorder) == kept

    @pytest.mark.parametrize("engine", ["levelized", "codegen"])
    def test_explain_window_never_spans_a_reset(self, engine):
        """The regression the sweep fixes: pre-reset snapshots leaking
        into a post-reset ``zeusc explain`` window."""
        from repro.obs import explain

        circuit = compile_ok(self.SRC)
        kwargs = {"lanes": 4} if engine == "codegen" else {}
        sim = circuit.simulator(engine=engine, flight=16, **kwargs)
        self._run(sim, 6)
        sim.reset_state()
        sim.poke("RSET", 1)
        sim.step()
        report = explain(sim, "u.y", cycle=0)
        assert sim.flight.first_cycle == sim.flight.last_cycle == 0
        assert report is not None
