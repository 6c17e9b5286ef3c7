"""Differential tests: the levelized fast-path engine, the batched
bit-parallel engine and the exec-compiled codegen engine against the
dataflow firing engine (the semantics oracle), plus the ``engine=``
knob through :class:`Simulator`, :class:`Testbench` and the CLI.

The batched checks are *metamorphic*: lane ``k`` of one batched run
must equal an independent scalar run driven with stimulus ``k`` --
peeks, register state, per-lane violations, and RANDOM-gate streams
(the per-lane rng contract: lane ``k`` of a batched simulator seeded
``s`` draws from ``random.Random(s + k)``, in gate order, exactly like
a scalar simulator seeded ``s + k``).

Equivalence is checked cycle-by-cycle on peeks of every named signal,
the register state, and the violation log (compared as sorted
``(cycle, net)`` pairs -- the *values* attached to a violation depend
on driver arrival order, which the two engines legitimately disagree
on).  In strict mode a raised :class:`SimulationError` is part of the
observable behaviour and must match too.
"""

import json
import random

import pytest

import repro
from repro.cli import main
from repro.core.schedule import ScheduleError, build_schedule
from repro.core.simulator import ENGINES
from repro.lang import SimulationError
from repro.stdlib import programs
from repro.testbench import Testbench

from test_fuzz import build_dag, render_zeus
from zeus_test_utils import compile_ok

SIMPLE = """
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
SIGNAL r: REG;
BEGIN
    IF RSET THEN r.in := 0 ELSE r.in := NOT r.out END;
    y := AND(a, r.out)
END;
SIGNAL u: t;
"""

CYCLIC = """
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
SIGNAL p, q: boolean;
BEGIN
    p := AND(a, q);
    q := OR(a, p);
    y := q
END;
SIGNAL u: t;
"""

CONFLICT = """
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
SIGNAL p: boolean;
BEGIN
    IF a THEN p := 1 END;
    IF NOT a THEN p := 1 END;
    IF a THEN p := 0 END;
    y := p
END;
SIGNAL u: t;
"""


def scalar_paths(circuit):
    return [p for p in circuit.netlist.signals if not p.endswith("]")]


def port_stimulus(circuit):
    """A deterministic per-cycle drive pattern over every IN port:
    RSET for two cycles, then alternating bits staggered per port."""
    inputs = [p.name for p in circuit.netlist.ports if p.mode == "IN"]

    def stim(cycle):
        drives = []
        for k, name in enumerate(inputs):
            if name == "RSET":
                drives.append((name, 1 if cycle < 2 else 0))
            else:
                drives.append((name, (cycle + k) % 2))
        return drives

    return stim


def run_trace(circuit, engine, *, cycles=20, seed=3, strict=True,
              stimulus=None):
    """Capture (peeks, registers) per cycle, the violation log and any
    strict-mode SimulationError."""
    sim = circuit.simulator(seed=seed, strict=strict, engine=engine)
    paths = scalar_paths(circuit)
    rows = []
    error = None
    try:
        for cycle in range(cycles):
            if stimulus is not None:
                for sig, val in stimulus(cycle):
                    sim.poke(sig, val)
            sim.step()
            rows.append((
                tuple(str(v) for p in paths for v in sim.peek(p)),
                tuple(sorted(
                    (k, str(v)) for k, v in sim.registers().items()
                )),
            ))
    except SimulationError as exc:
        error = str(exc)
    violations = sorted((v.cycle, v.net) for v in sim.violations)
    return rows, violations, error


class TestStdlibEquivalence:
    @pytest.mark.parametrize("name", sorted(programs.ALL_PROGRAMS))
    def test_engines_agree(self, name):
        circuit = repro.compile_text(programs.ALL_PROGRAMS[name], name=name)
        stim = port_stimulus(circuit)
        lev = run_trace(circuit, "levelized", stimulus=stim)
        # Sanity: the fast path actually engaged.
        assert circuit.simulator(engine="levelized").engine == "levelized"
        df = run_trace(circuit, "dataflow", stimulus=stim)
        assert lev == df

    @pytest.mark.parametrize("name", ["blackjack", "memory"])
    def test_engines_agree_undriven(self, name):
        # No stimulus at all: UNDEF propagation must match as well.
        circuit = repro.compile_text(programs.ALL_PROGRAMS[name], name=name)
        assert run_trace(circuit, "levelized") == run_trace(
            circuit, "dataflow"
        )


class TestFuzzEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_dags_agree(self, seed):
        rng = random.Random(seed)
        n_inputs = rng.randint(2, 5)
        nodes = build_dag(rng, n_inputs, rng.randint(3, 12))
        circuit = repro.compile_text(
            render_zeus(n_inputs, nodes), strict=False
        )

        def stim(cycle):
            return [(f"i{k}", (seed + cycle + k) % 2)
                    for k in range(n_inputs)]

        for strict in (True, False):
            lev = run_trace(circuit, "levelized", cycles=6, seed=seed,
                            strict=strict, stimulus=stim)
            df = run_trace(circuit, "dataflow", cycles=6, seed=seed,
                           strict=strict, stimulus=stim)
            assert lev == df

    @pytest.mark.parametrize("seed", range(8))
    def test_random_register_pipelines_agree(self, seed):
        rng = random.Random(1000 + seed)
        depth = rng.randint(1, 4)
        regs = "; ".join(f"SIGNAL r{i}: REG" for i in range(depth))
        stages = "\n".join(
            f"    r{i}.in := NOT r{i - 1}.out;" for i in range(1, depth)
        )
        text = f"""
TYPE t = COMPONENT (IN d: boolean; OUT q: boolean) IS
{regs};
BEGIN
    r0.in := d;
{stages}
    q := r{depth - 1}.out
END;
SIGNAL u: t;
"""
        circuit = repro.compile_text(text)

        def stim(cycle):
            return [("d", (seed >> (cycle % 4)) & 1)]

        assert run_trace(circuit, "levelized", stimulus=stim) == run_trace(
            circuit, "dataflow", stimulus=stim
        )


class TestViolationEquivalence:
    def test_lenient_conflicts_agree(self):
        circuit = repro.compile_text(CONFLICT, strict=False)

        def stim(cycle):
            return [("a", cycle % 2)]

        lev = run_trace(circuit, "levelized", strict=False, stimulus=stim)
        df = run_trace(circuit, "dataflow", strict=False, stimulus=stim)
        assert lev == df
        assert lev[1]  # conflicts were actually exercised

    def test_strict_conflict_raises_same_error(self):
        circuit = repro.compile_text(CONFLICT, strict=False)

        def stim(cycle):
            return [("a", 1)]

        lev = run_trace(circuit, "levelized", strict=True, stimulus=stim)
        df = run_trace(circuit, "dataflow", strict=True, stimulus=stim)
        assert lev == df
        assert lev[2] is not None and "burn" in lev[2]


class TestMetricsEquivalence:
    def test_activity_counters_agree(self):
        circuit = repro.compile_text(programs.ALL_PROGRAMS["blackjack"])
        stats = {}
        for engine in ("levelized", "dataflow"):
            sim = circuit.simulator(metrics=True, engine=engine)
            sim.poke("RSET", 1); sim.step()
            sim.poke("RSET", 0); sim.step(15)
            m = sim.metrics
            stats[engine] = (
                m.cycles, m.firings, m.latches, m.violations,
                m.firings_per_cycle, m.net_fires, m.net_toggles,
            )
            assert m.engine == engine
        assert stats["levelized"] == stats["dataflow"]


class TestEngineKnob:
    def test_engine_values(self):
        circuit = compile_ok(SIMPLE)
        assert ENGINES == (
            "auto", "levelized", "dataflow", "batched", "codegen"
        )
        sim = circuit.simulator()
        assert sim.engine_requested == "auto"
        assert sim.engine == "levelized"
        assert circuit.simulator(engine="dataflow").engine == "dataflow"
        assert circuit.simulator(engine="levelized").engine == "levelized"
        batched = circuit.simulator(engine="batched", lanes=4)
        assert batched.engine_requested == "batched"
        assert batched.engine == "codegen"  # an alias of the lane engine
        assert batched.lanes == 4
        assert sim.lanes is None
        cg = circuit.simulator(engine="codegen", lanes=4)
        assert cg.engine == "codegen"
        assert cg.lanes == 4
        assert cg._cg is not None, cg.engine_reason

    def test_codegen_cyclic_design_falls_back_per_lane(self):
        circuit = repro.compile_text(CYCLIC, strict=False)
        sim = circuit.simulator(strict=False, engine="codegen", lanes=4)
        assert sim.engine == "codegen"
        assert not sim._batched_fast
        assert sim._cg is None
        assert "fallback" in sim.engine_reason
        sim.poke("a", 1)
        sim.step()
        assert [str(v[0]) for v in sim.peek_lanes("y")] == ["1"] * 4

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            compile_ok(SIMPLE).simulator(engine="warp")

    def test_record_firing_uses_dataflow_order(self):
        sim = compile_ok(SIMPLE).simulator(record_firing=True)
        assert sim.engine == "dataflow"
        assert sim.engine_reason

    def test_cyclic_design_falls_back(self):
        circuit = repro.compile_text(CYCLIC, strict=False)
        sim = circuit.simulator(strict=False)
        assert sim.engine == "dataflow"
        assert "cycle" in sim.engine_reason

    def test_forcing_levelized_on_cyclic_design_raises(self):
        circuit = repro.compile_text(CYCLIC, strict=False)
        with pytest.raises(SimulationError, match="levelized schedule"):
            circuit.simulator(strict=False, engine="levelized")

    def test_build_schedule_rejects_cycles(self):
        circuit = repro.compile_text(CYCLIC, strict=False)
        sim = circuit.simulator(strict=False)
        with pytest.raises(ScheduleError):
            build_schedule(sim)

    def test_schedule_describe(self):
        sim = compile_ok(SIMPLE).simulator()
        text = sim._schedule.describe()
        assert "ops" in text

    def test_testbench_engine_knob(self):
        circuit = compile_ok(SIMPLE)
        tb = Testbench(circuit, engine="dataflow")
        assert tb.sim.engine == "dataflow"
        assert Testbench(circuit).sim.engine == "levelized"
        # After reset r holds 0; a second enabled cycle brings r.out to
        # 1, so y = AND(a, r.out) reads 1.
        tb.reset().drive(a=1).clock(2)
        tb.expect(y=1)


class TestEngineCli:
    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out

    def test_sim_engine_flag_in_report(self, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        code, _ = self.run(
            ["sim", "--builtin", "blackjack", "--cycles", "4",
             "--engine", "dataflow", "--metrics", str(out_file)], capsys
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["sim"]["engine"] == "dataflow"

    def test_profile_reports_engine(self, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        code, out = self.run(
            ["profile", "--builtin", "adders", "--cycles", "4",
             "--metrics", str(out_file)], capsys
        )
        assert code == 0
        assert "simulation engine : levelized" in out
        report = json.loads(out_file.read_text())
        assert report["sim"]["engine"] == "levelized"

    def test_sim_engine_output_independent(self, capsys):
        outs = []
        for engine in ("levelized", "dataflow"):
            code, out = self.run(
                ["sim", "--builtin", "mux4", "--cycles", "6",
                 "--poke", "d=5", "--poke", "a=2", "--poke", "g=1",
                 "--engine", engine], capsys
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_sim_engine_batched_dispatches(self, capsys):
        code, out = self.run(
            ["sim", "--builtin", "mux4", "--cycles", "2",
             "--poke", "d=5", "--poke", "a=2", "--poke", "g=1",
             "--engine", "batched"], capsys
        )
        assert code == 0
        assert "codegen run: 64 lanes" in out

    def test_sim_engine_codegen_dispatches(self, capsys):
        outs = []
        for engine in ("batched", "codegen"):
            code, out = self.run(
                ["sim", "--builtin", "mux4", "--cycles", "2",
                 "--poke", "d=5", "--poke", "a=2", "--poke", "g=1",
                 "--engine", engine], capsys
            )
            assert code == 0
            outs.append(out)
        assert "codegen run: 64 lanes" in outs[1]
        # Identical observations below the engine banner line.
        assert outs[0].split("\n", 1)[1] == outs[1].split("\n", 1)[1]


# -- the batched engine, lane by lane -------------------------------------

LANES = 4
BATCH_SEED = 3


def lane_stimulus(circuit):
    """Per-lane variant of :func:`port_stimulus`: lane ``k`` staggers
    every non-RSET input by an extra ``k`` cycles."""
    inputs = [p.name for p in circuit.netlist.ports if p.mode == "IN"]

    def stim(cycle, lane):
        drives = []
        for j, name in enumerate(inputs):
            if name == "RSET":
                drives.append((name, 1 if cycle < 2 else 0))
            else:
                drives.append((name, (cycle + j + lane) % 2))
        return drives

    return stim


def run_batched_lanes(circuit, stim, *, cycles=10, seed=BATCH_SEED,
                      strict=True, lanes=LANES, engine="batched"):
    """One batched-or-codegen run; returns per-lane (rows, violations,
    error) in the same shape :func:`run_trace` produces for a scalar
    run."""
    sim = circuit.simulator(
        seed=seed, strict=strict, engine=engine, lanes=lanes,
    )
    paths = scalar_paths(circuit)
    inputs = [p.name for p in circuit.netlist.ports if p.mode == "IN"]
    rows = [[] for _ in range(lanes)]
    error = None
    try:
        for cycle in range(cycles):
            if stim is not None:
                per_input = {name: [] for name in inputs}
                for k in range(lanes):
                    for name, value in stim(cycle, k):
                        per_input[name].append(value)
                for name, values in per_input.items():
                    if values:
                        sim.poke_lanes(name, values)
            sim.step()
            snap = {p: sim.peek_lanes(p) for p in paths}
            for k in range(lanes):
                rows[k].append((
                    tuple(str(v) for p in paths for v in snap[p][k]),
                    tuple(sorted(
                        (name, str(v))
                        for name, v in sim.registers(lane=k).items()
                    )),
                ))
    except SimulationError as exc:
        error = str(exc)
    return [
        (
            rows[k],
            sorted(
                (v.cycle, v.net)
                for v in sim.violations
                if v.lane == k
            ),
            error,
        )
        for k in range(lanes)
    ]


class TestBatchedMetamorphic:
    """Lane k of one batched run == an independent scalar run with
    stimulus k and seed ``BATCH_SEED + k``, for every stdlib program."""

    @pytest.mark.parametrize("engine", ["batched", "codegen"])
    @pytest.mark.parametrize("name", sorted(programs.ALL_PROGRAMS))
    def test_every_lane_matches_scalar_run(self, name, engine):
        # Lenient mode: some staggered-lane stimuli legitimately conflict
        # (htree's driver exclusivity depends on the input pattern), and
        # recorded violations must then match lane by lane.
        circuit = repro.compile_text(programs.ALL_PROGRAMS[name], name=name)
        stim = lane_stimulus(circuit)
        fast = circuit.simulator(engine=engine, lanes=LANES)
        assert fast._batched_fast, "stdlib must take the bit-parallel path"
        if engine == "codegen":
            assert fast._cg is not None, fast.engine_reason
        per_lane = run_batched_lanes(circuit, stim, cycles=10, strict=False,
                                     engine=engine)
        for k in range(LANES):
            scalar = run_trace(
                circuit, "dataflow", cycles=10, seed=BATCH_SEED + k,
                strict=False, stimulus=lambda cycle: stim(cycle, k),
            )
            assert per_lane[k][0] == scalar[0], f"{name}: lane {k} peeks"
            assert per_lane[k][1] == scalar[1], f"{name}: lane {k} violations"

    @pytest.mark.parametrize("name", ["blackjack", "memory"])
    def test_undriven_lanes_match(self, name):
        circuit = repro.compile_text(programs.ALL_PROGRAMS[name], name=name)
        per_lane = run_batched_lanes(circuit, None, cycles=8)
        for k in range(LANES):
            scalar = run_trace(
                circuit, "dataflow", cycles=8, seed=BATCH_SEED + k
            )
            assert per_lane[k][0] == scalar[0]

    @pytest.mark.parametrize("engine", ["batched", "codegen"])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_dags_lane_by_lane(self, seed, engine):
        rng = random.Random(seed)
        n_inputs = rng.randint(2, 5)
        nodes = build_dag(rng, n_inputs, rng.randint(3, 12))
        circuit = repro.compile_text(
            render_zeus(n_inputs, nodes), strict=False
        )

        def stim(cycle, lane):
            return [(f"i{j}", (seed + cycle + j + lane) % 2)
                    for j in range(n_inputs)]

        per_lane = run_batched_lanes(circuit, stim, cycles=6, seed=seed,
                                     strict=False, engine=engine)
        for k in range(LANES):
            scalar = run_trace(
                circuit, "dataflow", cycles=6, seed=seed + k, strict=False,
                stimulus=lambda cycle: stim(cycle, k),
            )
            assert per_lane[k] == scalar


RANDOM_GATE = """
TYPE t = COMPONENT (IN a: boolean; OUT y, z: boolean) IS
BEGIN
    y := AND(a, RANDOM());
    z := XOR(RANDOM(), RANDOM())
END;
SIGNAL u: t;
"""


class TestBatchedRngContract:
    """The documented per-lane rng contract: lane k of a batched run
    seeded s consumes ``random.Random(s + k)`` in gate order, so it
    reproduces a scalar run seeded ``s + k`` bit for bit."""

    @pytest.mark.parametrize("engine", ["batched", "codegen"])
    def test_lane_streams_match_scalar_seeds(self, engine):
        circuit = compile_ok(RANDOM_GATE)
        lanes = 6
        sim = circuit.simulator(engine=engine, lanes=lanes, seed=11)
        sim.poke("a", 1)
        batched = [[] for _ in range(lanes)]
        for _ in range(16):
            sim.step()
            ys = sim.peek_lanes("y")
            zs = sim.peek_lanes("z")
            for k in range(lanes):
                batched[k].append((str(ys[k][0]), str(zs[k][0])))
        for k in range(lanes):
            ref = circuit.simulator(engine="dataflow", seed=11 + k)
            ref.poke("a", 1)
            expect = []
            for _ in range(16):
                ref.step()
                expect.append(
                    (str(ref.peek_bit("y")), str(ref.peek_bit("z")))
                )
            assert batched[k] == expect, f"lane {k} rng stream diverged"

    def test_lanes_are_decorrelated(self):
        circuit = compile_ok(RANDOM_GATE)
        sim = circuit.simulator(engine="batched", lanes=8, seed=0)
        sim.poke("a", 1)
        streams = [[] for _ in range(8)]
        for _ in range(32):
            sim.step()
            ys = sim.peek_lanes("y")
            for k in range(8):
                streams[k].append(str(ys[k][0]))
        assert len({tuple(s) for s in streams}) > 1


class TestBatchedKnobs:
    def test_testbench_lanes_knob(self):
        circuit = compile_ok(SIMPLE)
        tb = Testbench(circuit, lanes=4)
        assert tb.sim.engine == "codegen"
        assert tb.sim.lanes == 4
        tb.drive_lanes("RSET", [1, 1, 1, 1])
        tb.clock()
        tb.drive_lanes("RSET", [0, 0, 0, 0])
        tb.drive_lanes("a", [0, 1, 0, 1])
        tb.clock(2)
        # after reset r.out toggles to 1, so y = a
        assert [str(v[0]) for v in tb.peek_lanes("y")] == ["0", "1", "0", "1"]

    def test_batched_requires_positive_lanes(self):
        with pytest.raises(ValueError, match="lanes"):
            compile_ok(SIMPLE).simulator(engine="batched", lanes=0)

    def test_equiv_batched_matches_scalar(self):
        a = repro.compile_text(programs.ripple_carry(4), top="adder")
        b = repro.compile_text(programs.ripple_carry(4), top="adder")
        from repro.analysis.equiv import exhaustive_equivalent

        batched = exhaustive_equivalent(a, b)
        scalar = exhaustive_equivalent(a, b, engine="dataflow")
        assert batched.equivalent and scalar.equivalent
        assert batched.vectors_checked == scalar.vectors_checked
        assert batched.engine == "batched"
        assert batched.lanes is not None
