"""zeusprove tests: the shared solver core, BMC + k-induction,
sequential equivalence, counterexample replay, and the zeus.proof/1
schema.

The differential discipline under test (satellite of ISSUE 4): every
COUNTEREXAMPLE must replay to a real simulator violation/mismatch, and
every PROVED verdict must survive exhaustive co-simulation on small
interfaces.
"""

import itertools
import json

import pytest

import repro
from repro.analysis import exhaustive_equivalent
from repro.core.values import GATE_FUNCTIONS, Logic
from repro.formal import (
    Encoder,
    FormalConfig,
    Sat,
    Unknown,
    Unsat,
    apply_op,
    check_equivalence,
    eval_expr,
    prove,
    solve,
    validate_proof_report,
    write_proof_report,
)
from repro.stdlib.programs import ALL_PROGRAMS


def compile_lenient(text, name="t", top=None):
    return repro.compile_text(text, top=top, name=name, strict=False)


def conflict_program(n_guards):
    """Independent guards on one multiplex net: conflicting whenever
    two of them are 1 (same shape as the lint/fuzz corpus)."""
    ins = ", ".join(f"g{k}" for k in range(n_guards))
    stmts = "\n".join(
        f"    IF g{k} THEN z := {k % 2} END;" for k in range(n_guards)
    )
    return f"""
TYPE t = COMPONENT (IN {ins}: boolean; OUT y: boolean; z: multiplex) IS
BEGIN
{stmts}
    y := g0
END;
SIGNAL u: t;
"""


EXCLUSIVE_NOT = """
TYPE t = COMPONENT (IN s: boolean; OUT y: boolean; z: multiplex) IS
BEGIN
    IF s THEN z := 1 END;
    IF NOT s THEN z := 0 END;
    y := s
END;
SIGNAL u: t;
"""

TAUTOLOGY = """
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
BEGIN
    y := OR(a, NOT a)
END;
SIGNAL u: t;
"""

WIRE = """
TYPE t = COMPONENT (IN d: boolean; OUT q: boolean) IS
BEGIN
    q := d
END;
SIGNAL u: t;
"""

REGGED = """
TYPE t = COMPONENT (IN d: boolean; OUT q: boolean) IS
SIGNAL r: REG;
BEGIN
    r(d, q)
END;
SIGNAL u: t;
"""

#: Every two-valued state of r conflicts on z (the unconditional driver
#: plus exactly one guarded one), but the UNDEF reset state does not:
#: its guards only maybe-drive.  Frame 1 loads r from d and conflicts.
UNDEF_ONLY_CLEAN = """
TYPE t = COMPONENT (IN d: boolean; OUT y: boolean) IS
SIGNAL r: REG; q: boolean; z: multiplex;
BEGIN
    r(d, q);
    z := 0;
    IF q THEN z := 1 END;
    IF NOT q THEN z := 0 END;
    y := q
END;
SIGNAL u: t;
"""

OR2 = """
TYPE t = COMPONENT (IN a, b: boolean; OUT z: boolean) IS
BEGIN
    z := OR(a, b)
END;
SIGNAL u: t;
"""

#: OR(a, b) written as a sum of products: equivalent but structurally
#: different, so the proof needs actual solver decisions.
OR2_SOP = """
TYPE t = COMPONENT (IN a, b: boolean; OUT z: boolean) IS
BEGIN
    z := OR(AND(a, b), OR(AND(a, NOT b), AND(NOT a, b)))
END;
SIGNAL u: t;
"""

AND2 = OR2.replace("OR(a, b)", "AND(a, b)")

#: Two XOR chains over the same inputs in opposite orders: equal by
#: commutativity, which the CNF only sees through search, so the proof
#: needs several conflicts (the unit the solver budget counts).
XOR_ORDERS = """
TYPE t = COMPONENT (IN a, b, c, d: boolean; OUT y: boolean) IS
BEGIN
    y := EQUAL(XOR(a, b, c, d), XOR(d, c, b, a))
END;
SIGNAL u: t;
"""


def _pigeonhole(holes):
    """(targets, blockers) placing holes + 1 pigeons in
    *holes* holes, one pigeon per hole: UNSAT, and only by search."""
    var = {(i, j): ("var", (i, j))
           for i in range(holes + 1) for j in range(holes)}
    targets = [("gate", "OR", tuple(var[i, j] for j in range(holes)))
               for i in range(holes + 1)]
    blockers = [("gate", "AND", (var[i, j], var[k, j]))
                for j in range(holes)
                for i in range(holes + 1) for k in range(i + 1, holes + 1)]
    return targets, blockers


# ---------------------------------------------------------------------------
# The shared solver core.
# ---------------------------------------------------------------------------


_LOGIC_TO_VAL = {Logic.ZERO: 0, Logic.ONE: 1, Logic.UNDEF: "U",
                 Logic.NOINFL: "Z"}


class TestSharedGateTable:
    """One four-valued gate table for the simulator, the lint prover
    and zeusprove (the dedupe satellite): the solver's apply_op must
    agree with a real single-gate simulation on the full lattice."""

    @pytest.mark.parametrize("op", ["AND", "OR", "NAND", "NOR", "XOR"])
    def test_binary_ops_match_simulator(self, op):
        src = OR2.replace("OR(a, b)", f"{op}(a, b)")
        circuit = compile_lenient(src, name=f"g{op.lower()}")
        for x, y in itertools.product(Logic, Logic):
            sim = circuit.simulator(strict=False)
            sim.poke("a", [x])
            sim.poke("b", [y])
            sim.step()
            got = sim.peek("z")[0]
            # Gate inputs read through the implicit amplifier.
            vals = (_LOGIC_TO_VAL[x.to_boolean()], _LOGIC_TO_VAL[y.to_boolean()])
            want = apply_op(op, vals)
            assert _LOGIC_TO_VAL[got] == want, (op, x, y)

    def test_not_matches_simulator(self):
        src = WIRE.replace("q := d", "q := NOT d")
        circuit = compile_lenient(src, name="gnot")
        for x in Logic:
            sim = circuit.simulator(strict=False)
            sim.poke("d", [x])
            sim.step()
            got = sim.peek("q")[0]
            want = apply_op("NOT", (_LOGIC_TO_VAL[x.to_boolean()],))
            assert _LOGIC_TO_VAL[got] == want, x

    def test_apply_op_agrees_with_values_table(self):
        conv = {0: Logic.ZERO, 1: Logic.ONE, "U": Logic.UNDEF,
                "Z": Logic.NOINFL}
        for op, fn in GATE_FUNCTIONS.items():
            for vals in itertools.product((0, 1, "U"), repeat=2):
                want = fn([conv[v] for v in vals])
                assert apply_op(op, vals) == _LOGIC_TO_VAL[want], (op, vals)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            apply_op("FROB", (0, 1))


class TestSolver:
    def test_contradiction_unsat(self):
        a = ("var", "a")
        contradiction = ("gate", "AND", (a, ("gate", "NOT", (a,))))
        assert solve((contradiction,)) == Unsat()

    def test_witness_found_and_partial(self):
        target = ("gate", "OR", (("var", "a"), ("var", "b")))
        outcome = solve((target,))
        assert isinstance(outcome, Sat)
        assert eval_expr(target, outcome.witness) == 1
        # Partial: one true disjunct settles the OR.
        assert len(outcome.witness) == 1

    def test_blockers_block(self):
        a = ("var", "a")
        # target a=1 while blocking a=1: unsatisfiable.
        assert solve((a,), blockers=(a,)) == Unsat()

    def test_budget_exhausted_is_unknown(self):
        outcome = solve(*_pigeonhole(4), budget=1)
        assert isinstance(outcome, Unknown)
        assert "budget" in outcome.reason

    def test_lint_prover_runs_on_shared_core(self):
        import repro.formal.solver as solver
        import repro.lint.prover as prover

        assert prover.ConeBuilder is solver.ConeBuilder
        assert prover.eval_expr is solver.eval_expr


# ---------------------------------------------------------------------------
# Bounded model checking.
# ---------------------------------------------------------------------------


class TestProve:
    def test_conflict_refuted_and_replayed(self):
        report = prove(compile_lenient(conflict_program(2)),
                       ["no-conflict"])
        (r,) = report.results
        assert r.verdict == "counterexample"
        assert r.counterexample.replay_confirmed
        assert "driven by" in r.counterexample.replay_detail
        assert report.exit_code() == 2

    def test_exclusive_guards_proved(self):
        report = prove(compile_lenient(EXCLUSIVE_NOT), ["no-conflict"])
        (r,) = report.results
        assert r.verdict == "proved"
        assert r.method == "combinational"
        assert report.exit_code() == 0

    def test_out_defined_proved(self):
        report = prove(compile_lenient(TAUTOLOGY), ["out-defined:y"])
        assert report.results[0].verdict == "proved"

    def test_out_defined_refuted_on_floating_multiplex(self):
        # The internal multiplex floats when s = 0, and the amplifier
        # turns that into UNDEF on the OUT pin.
        src = """
TYPE t = COMPONENT (IN s: boolean; OUT y: boolean) IS
SIGNAL z: multiplex;
BEGIN
    IF s THEN z := 1 END;
    y := z
END;
SIGNAL u: t;
"""
        report = prove(compile_lenient(src), ["out-defined:y"])
        (r,) = report.results
        assert r.verdict == "counterexample"
        assert r.counterexample.replay_confirmed

    def test_assert_proved_for_tautology(self):
        report = prove(compile_lenient(TAUTOLOGY), ["assert:u.y"])
        assert report.results[0].verdict == "proved"

    def test_assert_refuted_with_stimulus(self):
        report = prove(compile_lenient(WIRE), ["assert:u.q"])
        (r,) = report.results
        assert r.verdict == "counterexample"
        assert r.counterexample.replay_confirmed
        # The stimulus is a full primary-input trace.
        assert all("d" in frame for frame in r.counterexample.frames)

    def test_register_undef_at_cycle_zero(self):
        report = prove(compile_lenient(REGGED), ["out-defined:q"])
        (r,) = report.results
        assert r.verdict == "counterexample"
        assert r.counterexample.cycle == 0
        assert r.counterexample.replay_confirmed

    def test_k_induction_closes_sequential_no_conflict(self):
        report = prove(compile_lenient(REGGED), ["no-conflict"])
        (r,) = report.results
        assert r.verdict == "proved"
        assert r.method in ("k-induction", "combinational")

    @pytest.mark.parametrize("induction", [True, False])
    def test_step_registers_range_over_undef(self, induction):
        # Blocking frame 0 in the step leaves only the UNDEF register
        # state; a step whose registers ranged over {0, 1} alone would
        # find no state at all and "prove" the property at k = 1.
        report = prove(compile_lenient(UNDEF_ONLY_CLEAN), ["no-conflict"],
                       FormalConfig(induction=induction))
        (r,) = report.results
        assert (r.verdict, r.method) == ("counterexample", "bmc")
        assert r.counterexample.cycle == 1
        assert r.counterexample.replay_confirmed

    @pytest.mark.parametrize("name", ["blackjack", "patternmatch"])
    def test_induction_stops_the_unrolling(self, name, monkeypatch):
        # The step at k = 1 runs once frame 0 is clean, and it closes:
        # no encoder builds a frame beyond 1.
        frames = set()
        net = Encoder.net

        def recording(self, ci, t):
            frames.add(t)
            return net(self, ci, t)

        monkeypatch.setattr(Encoder, "net", recording)
        report = prove(compile_lenient(ALL_PROGRAMS[name], name=name),
                       ["no-conflict"])
        (r,) = report.results
        assert (r.verdict, r.method, r.k, r.depth_checked) == (
            "proved", "k-induction", 1, 0)
        assert max(frames) == 1

    def test_default_properties_cover_out_pins(self):
        # z is a multiplex pin (INOUT), so only y is a default
        # out-defined obligation.
        report = prove(compile_lenient(EXCLUSIVE_NOT))
        assert {r.prop for r in report.results} == {
            "no-conflict", "out-defined:y"}

    def test_bad_property_rejected(self):
        circuit = compile_lenient(TAUTOLOGY)
        with pytest.raises(ValueError):
            prove(circuit, ["frobnicate"])
        with pytest.raises(ValueError):
            prove(circuit, ["out-defined:nope"])

    def test_budget_exhaustion_reports_unknown(self):
        circuit = compile_lenient(XOR_ORDERS)
        assert prove(circuit, ["assert:u.y"]).results[0].verdict == "proved"
        report = prove(circuit, ["assert:u.y"], FormalConfig(budget=1))
        (r,) = report.results
        assert r.verdict == "unknown"
        assert "budget" in r.reason
        assert report.stats.budget_exhausted
        assert report.exit_code() == 0
        assert report.exit_code(werror=True) == 1

    def test_blackjack_smoke(self):
        circuit = compile_lenient(
            ALL_PROGRAMS["blackjack"], name="blackjack")
        report = prove(circuit, ["no-conflict"],
                       FormalConfig(depth=1, budget=20_000,
                                    induction=False))
        assert report.results[0].verdict in ("proved", "unknown")
        assert report.stats.sat_calls > 0


# ---------------------------------------------------------------------------
# Sequential equivalence.
# ---------------------------------------------------------------------------


class TestEquiv:
    def test_paper_adders_proved_equivalent(self):
        a = compile_lenient(ALL_PROGRAMS["adders"], top="adder4")
        b = compile_lenient(ALL_PROGRAMS["adders"], top="adder")
        report = check_equivalence(a, b)
        assert report.verdict == "proved"
        assert "PROVED-EQUIVALENT" in report.render_text()

    def test_paper_trees_proved_equivalent(self):
        a = compile_lenient(ALL_PROGRAMS["trees"], top="a")
        b = compile_lenient(ALL_PROGRAMS["trees"], top="b")
        report = check_equivalence(a, b)
        assert report.verdict == "proved"

    def test_structurally_different_equivalent_pair(self):
        report = check_equivalence(compile_lenient(OR2),
                                   compile_lenient(OR2_SOP))
        assert report.verdict == "proved"
        # Not a structural-identity freebie: the miter did not fold
        # away, so the solver had to decide.
        assert report.stats.sat_calls > 0

    def test_inequivalent_pair_refuted_and_replayed(self):
        report = check_equivalence(compile_lenient(OR2),
                                   compile_lenient(AND2))
        (r,) = report.results
        assert r.verdict == "counterexample"
        assert r.counterexample.replay_confirmed
        assert "differs" in r.counterexample.replay_detail
        assert report.exit_code() == 2

    def test_sequential_mismatch_at_cycle_zero(self):
        # A wire and a one-cycle register differ as soon as the register
        # still holds its UNDEF reset value.
        report = check_equivalence(compile_lenient(WIRE),
                                   compile_lenient(REGGED))
        (r,) = report.results
        assert r.verdict == "counterexample"
        assert r.counterexample.replay_confirmed

    def test_sequential_self_equivalence(self):
        report = check_equivalence(compile_lenient(REGGED, name="x"),
                                   compile_lenient(REGGED, name="y"))
        assert report.verdict == "proved"
        (r,) = report.results
        assert (r.method, r.k, r.depth_checked) == ("k-induction", 1, 0)

    def test_interface_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_equivalence(compile_lenient(OR2),
                              compile_lenient(WIRE))


class TestProvedSurvivesCosim:
    """Satellite 3: PROVED equivalences must agree with exhaustive
    co-simulation over every defined input vector (<= 12 input bits)."""

    PAIRS = [
        ("adders", "adder4", "adder", 2),
        ("trees", "a", "b", 1),
    ]

    @pytest.mark.parametrize("prog,top_a,top_b,cycles", PAIRS)
    def test_paper_pairs(self, prog, top_a, top_b, cycles):
        a = compile_lenient(ALL_PROGRAMS[prog], top=top_a, name="a")
        b = compile_lenient(ALL_PROGRAMS[prog], top=top_b, name="b")
        formal = check_equivalence(a, b)
        assert formal.verdict == "proved"
        bits = sum(len(p.nets) for p in a.netlist.ports if p.mode == "IN")
        assert bits <= 12
        sampled = exhaustive_equivalent(a, b, cycles=cycles)
        assert sampled.equivalent

    def test_proved_out_defined_survives_exhaustive_sim(self):
        circuit = compile_lenient(TAUTOLOGY)
        report = prove(circuit, ["out-defined:y"])
        assert report.results[0].verdict == "proved"
        for bit in (0, 1):
            sim = circuit.simulator(strict=False)
            sim.poke("a", bit)
            sim.step()
            assert all(v.is_defined for v in sim.peek("y"))

    @pytest.mark.parametrize("n_guards", [2, 3, 4])
    def test_fuzz_conflicts_always_replay(self, n_guards):
        report = prove(compile_lenient(conflict_program(n_guards)),
                       ["no-conflict"])
        (r,) = report.results
        assert r.verdict == "counterexample"
        assert r.counterexample.replay_confirmed


# ---------------------------------------------------------------------------
# The zeus.proof/1 schema.
# ---------------------------------------------------------------------------


class TestProofSchema:
    def test_roundtrip_validates(self, tmp_path):
        report = prove(compile_lenient(conflict_program(2)),
                       ["no-conflict"])
        path = tmp_path / "proof.json"
        write_proof_report(str(path), report)
        data = json.loads(path.read_text())
        validate_proof_report(data)
        assert data["schema"] == "zeus.proof/1"
        assert data["verdict"] == "counterexample"
        assert data["solver"]["clauses"] > 0
        (result,) = data["results"]
        assert result["counterexample"]["replay"]["confirmed"] is True

    def test_validator_rejects_tampering(self):
        report = prove(compile_lenient(EXCLUSIVE_NOT),
                       ["no-conflict"]).to_dict()
        validate_proof_report(report)
        for breakage in (
            {"schema": "zeus.proof/9"},
            {"mode": "divine"},
            {"verdict": "maybe"},
            {"solver": {}},
        ):
            broken = {**report, **breakage}
            with pytest.raises(ValueError):
                validate_proof_report(broken)

    def test_metrics_formal_section(self):
        from repro.obs import metrics_report, validate_report

        formal = prove(compile_lenient(EXCLUSIVE_NOT), ["no-conflict"])
        circuit = compile_lenient(EXCLUSIVE_NOT)
        report = metrics_report(circuit, formal=formal)
        validate_report(report)
        assert report["formal"]["mode"] == "prove"
        assert report["formal"]["verdict"] == "proved"
        assert report["formal"]["solver"]["clauses"] == formal.clauses

    def test_formal_span_recorded(self):
        from repro.obs import spans as _spans

        registry = _spans.REGISTRY
        registry.reset()
        prove(compile_lenient(EXCLUSIVE_NOT), ["no-conflict"])
        assert any(s.name == "formal" for s in registry.spans)
