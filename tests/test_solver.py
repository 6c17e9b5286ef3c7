"""The clause-learning core behind ``solve()``: its clause tables and
structural encodings against the evaluator, its verdicts against the
original case split, its witnesses, linear-time interning, and the
budget sweep (a smaller conflict budget may only lose verdicts, never
change them)."""

import itertools
import time

import pytest

import repro
from repro.analysis.fuzzgen import generate_program
from repro.core.values import NETLIST_GATE_FUNCTIONS, Logic
from repro.formal import (
    Encoder,
    ExprFactory,
    FormalConfig,
    Sat,
    Unknown,
    Unsat,
    cdcl,
    check_equivalence,
    eval_expr,
    prove,
    solve,
    support_of,
)
from repro.formal import bmc, equiv, solver
from repro.lint import LintConfig, run_lint
from repro.lint import LintContext
from repro.stdlib.programs import ALL_PROGRAMS, ripple_carry
from repro.timing import analyze_timing
from repro.timing import falsepath

from reference_solver import reference_solve


def lenient(text, top=None, name="t"):
    return repro.compile_text(text, top=top, name=name, strict=False)


# ---------------------------------------------------------------------------
# Clause tables and structural encodings.
# ---------------------------------------------------------------------------

_TO_LOGIC = {0: Logic.ZERO, 1: Logic.ONE, "U": Logic.UNDEF,
             "Z": Logic.UNDEF}  # a gate reads NOINFL through the amplifier
_FROM_LOGIC = {Logic.ZERO: 0, Logic.ONE: 1, Logic.UNDEF: "U"}
_MASKS = range(1, 16)  # every non-empty subset of {0, 1, UNDEF, NOINFL}


def _own_bits(value, mask):
    return [cdcl._RAILS[value][r] for r in cdcl._OWN[mask]]


def _decode(bits, mask):
    _n, s0, s1 = cdcl._SHAPES[mask]

    def rail(spec):
        if isinstance(spec, int):
            return int(spec == cdcl.TRUE)
        return bits[spec[0]] ^ spec[1]

    return cdcl._FROM_RAILS[(rail(s0), rail(s1))]


def _check_table(kind, op, masks, fn):
    """Exhaustively: for every child value in its domain, the table
    admits exactly one value for the node, and it is ``fn``'s."""
    clauses, out_mask, alias = cdcl.node_table(kind, op, masks)
    n_out = len(cdcl._OWN[out_mask])
    for vals in itertools.product(*(cdcl._values_of(m) for m in masks)):
        want = fn(*vals)
        assert out_mask & cdcl._BIT[want], (kind, op, masks, vals)
        kids = [b for v, m in zip(vals, masks) for b in _own_bits(v, m)]
        if alias is not None:
            got = [kids[t >> 1] ^ (t & 1) for t in alias]
            assert _decode(got, out_mask) == want, (kind, op, masks, vals)
            continue
        admitted = []
        for out in itertools.product((0, 1), repeat=n_out):
            bits = kids + list(out)
            if all(any(bits[t >> 1] ^ (t & 1) for t in c) for c in clauses):
                admitted.append(_decode(list(out), out_mask))
        assert admitted == [want], (kind, op, masks, vals, admitted)


def _gate_fn(op):
    fn = NETLIST_GATE_FUNCTIONS[op]
    return lambda *vals: _FROM_LOGIC[fn([_TO_LOGIC[v] for v in vals])]


class TestGateTables:
    """Every gate table the encoder can build (binary nodes after the
    n-ary split, plus one-input gates) against the simulator's gate
    functions, over every pair of child domains."""

    @pytest.mark.parametrize("op", ["AND", "OR", "NAND", "NOR", "XOR",
                                    "EQUAL"])
    def test_binary_tables(self, op):
        for masks in itertools.product(_MASKS, repeat=2):
            _check_table("gate", op, masks, _gate_fn(op))

    @pytest.mark.parametrize("op", sorted(NETLIST_GATE_FUNCTIONS))
    def test_unary_tables(self, op):
        for mask in _MASKS:
            _check_table("gate", op, (mask,), _gate_fn(op))

    def test_node_tables_match_eval(self):
        """amp/latch/differs/isundef tables against the evaluator."""
        def via_eval(tag, arity):
            def fn(*vals):
                leaves = [("const", v) for v in vals]
                return solver._eval((tag, *leaves), {}, {})
            return fn

        for tag, arity in (("amp", 1), ("isundef", 1), ("latch", 2),
                           ("differs", 2)):
            for masks in itertools.product(_MASKS, repeat=arity):
                _check_table(tag, None, masks, via_eval(tag, arity))

    def test_var_tables_pin_the_domain(self):
        for mask in _MASKS:
            domain = cdcl._values_of(mask)
            clauses, out_mask, alias = cdcl.node_table("var", None, (mask,))
            assert out_mask == mask and alias is None
            n = len(cdcl._OWN[mask])
            admitted = sorted(
                (_decode(list(bits), mask)
                 for bits in itertools.product((0, 1), repeat=n)
                 if all(any(bits[t >> 1] ^ (t & 1) for t in c)
                        for c in clauses)), key=str)
            assert admitted == sorted(domain, key=str)

    def test_tables_are_built_on_first_use(self):
        cdcl._TABLES.clear()
        a = ("var", "a")
        solve((("gate", "NOR", (a, ("var", "b"))),))
        assert list(cdcl._TABLES) == [("gate", "NOR", (3, 3))]


def _check_encoding(node, domains):
    """For every leaf assignment, unit propagation alone (no decision)
    settles the node to the value the evaluator gives it."""
    cnf = cdcl.Cnf(domains)
    l0, l1, mask = cnf.encode(node)
    units = list(cnf.units)
    leaves = sorted(domains)
    for vals in itertools.product(*(domains[k] for k in leaves)):
        asn = dict(zip(leaves, vals))
        want = solver._eval(node, asn, {})
        assert mask & cdcl._BIT[want], (node, asn)
        pins = []
        for key, v in asn.items():
            a0, a1, _ = cnf.var_rails[key]
            p0, p1 = cdcl._RAILS[v]
            pins += [a0 ^ (1 - p0), a1 ^ (1 - p1)]
        cnf.units = units + pins
        status, model, _, decisions = cdcl.search(cnf, 0)
        assert status is True and decisions == 0, (node, asn)
        assert cdcl.rails_value(model, l0, l1) == want, (node, asn)


_GUARD = (0, 1, "U")
_SOURCE = (0, 1, "U", "Z")


def _drivers(n, guard_domain=_GUARD, source_domain=_SOURCE):
    pairs = tuple((("var", f"g{i}"), ("var", f"s{i}")) for i in range(n))
    domains = {f"g{i}": guard_domain for i in range(n)}
    domains.update({f"s{i}": source_domain for i in range(n)})
    return pairs, domains


class TestStructuralEncodings:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("tag", ["bus", "conflict"])
    def test_multiplex_nodes(self, tag, n):
        pairs, domains = _drivers(n)
        _check_encoding((tag, pairs), domains)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("tag", ["bus", "conflict"])
    def test_defined_guards_and_sources(self, tag, n):
        # UNDEF can only come from two drivers at once here.
        pairs, domains = _drivers(n, (0, 1), (0, 1, "Z"))
        _check_encoding((tag, pairs), domains)

    @pytest.mark.parametrize("tag", ["bus", "conflict"])
    def test_floating_guards(self, tag):
        pairs, domains = _drivers(2, guard_domain=_SOURCE)
        _check_encoding((tag, pairs), domains)

    @pytest.mark.parametrize("tag,arity", [("latch", 2), ("amp", 1),
                                           ("differs", 2), ("isundef", 1)])
    def test_fixed_arity_nodes(self, tag, arity):
        leaves = [("var", f"x{i}") for i in range(arity)]
        _check_encoding((tag, *leaves),
                        {f"x{i}": _SOURCE for i in range(arity)})

    def test_nary_split_is_exact(self):
        for op in ("AND", "OR", "NAND", "NOR", "XOR", "EQUAL"):
            for width in (3, 4):
                leaves = tuple(("var", f"x{i}") for i in range(width))
                _check_encoding(("gate", op, leaves),
                                {f"x{i}": _GUARD for i in range(width)})
        eq6 = tuple(("var", f"x{i}") for i in range(6))
        _check_encoding(("gate", "EQUAL", eq6),
                        {f"x{i}": _GUARD for i in range(6)})


# ---------------------------------------------------------------------------
# Agreement with the reference case split; witnesses.
# ---------------------------------------------------------------------------


def _record_queries(monkeypatch, run):
    """Run *run* with every solve() call recorded as (targets, blockers,
    domains, outcome)."""
    calls = []
    real = solver.solve

    def recording(targets, blockers=(), **kw):
        targets, blockers = tuple(targets), tuple(blockers)
        outcome = real(targets, blockers, **kw)
        calls.append((targets, blockers, kw.get("domains"), outcome))
        return outcome

    for module in (solver, bmc, equiv, falsepath):
        monkeypatch.setattr(module, "solve", recording)
    run()
    return calls


def _settles(witness, targets, blockers):
    return (all(eval_expr(t, witness) == 1 for t in targets)
            and all(eval_expr(b, witness) not in (1, None)
                    for b in blockers))


def _corpus_runs():
    for name, text in sorted(ALL_PROGRAMS.items()):
        circuit = lenient(text, name=name)
        yield lambda c=circuit: (prove(c, config=FormalConfig(depth=2)),
                                 run_lint(c), analyze_timing(c))
    for seed in range(40):
        circuit = lenient(generate_program(seed).text, name=f"fuzz{seed}")
        yield lambda c=circuit: (prove(c, config=FormalConfig(depth=2)),
                                 run_lint(c))


class TestReferenceAgreement:
    def test_corpus_verdicts_and_witnesses(self, monkeypatch):
        compared = 0
        for run in _corpus_runs():
            for targets, blockers, domains, got in \
                    _record_queries(monkeypatch, run):
                assert not isinstance(got, Unknown)
                if isinstance(got, Sat):
                    assert _settles(got.witness, targets, blockers)
                support = dict.fromkeys(
                    key for e in targets + blockers for key in support_of(e))
                ref = reference_solve(targets, blockers, tuple(support),
                                      budget=150, domains=domains)
                if isinstance(ref, Unknown):
                    continue
                assert type(ref) is type(got), (targets, blockers)
                compared += 1
        assert compared > 400

    def test_copies_of_a_variable_are_one_variable(self):
        # Equal ("var", key) tuples that are distinct objects name one
        # variable: p AND NOT p stays unsatisfiable.
        p1, p2 = tuple(["var", "p"]), tuple(["var", "p"])
        assert p1 is not p2
        target = ("gate", "AND", (p1, ("gate", "NOT", (p2,))))
        assert solve((target,)) == Unsat()
        assert reference_solve((target,), (), ("p",)) == Unsat()

    def test_cyclic_guard_cone_matches_reference(self, monkeypatch):
        # The cone builder cuts the loop through p with a fresh variable
        # tuple at each back-reference, so every guard reaches p twice.
        circuit = lenient("""
TYPE t = COMPONENT (IN a, b: boolean; OUT y: boolean; z: multiplex) IS
    SIGNAL p: boolean;
BEGIN
    p := OR(AND(p, a), AND(p, NOT a));
    IF AND(p, b) THEN z := 1 END;
    IF AND(p, NOT b) THEN z := 0 END;
    IF OR(AND(p, a), AND(p, NOT a)) THEN z := 0 END;
    y := p
END;
SIGNAL u: t;
""")
        report = None

        def run():
            nonlocal report
            report = run_lint(circuit)

        calls = _record_queries(monkeypatch, run)
        assert calls
        for targets, blockers, domains, got in calls:
            if isinstance(got, Sat):
                assert _settles(got.witness, targets, blockers)
            support = dict.fromkeys(
                key for e in targets + blockers for key in support_of(e))
            ref = reference_solve(targets, blockers, tuple(support),
                                  domains=domains)
            assert type(ref) is type(got), (targets, blockers)
        rules = {f.rule for f in report.findings}
        assert "comb-cycle" in rules
        assert "driver-unproved" in rules

    def test_witness_is_irredundant(self):
        a, b, c = ("var", "a"), ("var", "b"), ("var", "c")
        target = ("gate", "OR", (("gate", "AND", (a, b)), c))
        outcome = solve((target,))
        assert isinstance(outcome, Sat)
        w = outcome.witness
        assert _settles(w, (target,), ())
        for key in w:
            smaller = {k: v for k, v in w.items() if k != key}
            assert not _settles(smaller, (target,), ())

    def test_witness_prefers_controllable_variables(self):
        # A model with reg = in = 1 settles OR(reg, in) either way; the
        # witness keeps the primary input, not the register state.
        reg, inp = ("var", ("reg", 0)), ("var", ("in", 0, 0))
        model = {("reg", 0): 1, ("in", 0, 0): 1}
        for target in (("gate", "OR", (reg, inp)),
                       ("gate", "OR", (inp, reg))):
            witness = cdcl.minimize(dict(model), (target,), (),
                                    solver._is_state)
            assert witness == {("in", 0, 0): 1}


# ---------------------------------------------------------------------------
# Linear-time interning.
# ---------------------------------------------------------------------------


class _StructuralFactory(ExprFactory):
    """Interns on the nested-tuple structure itself (the hash of a node
    walks its whole sub-DAG): the reference for node counts."""

    def _n(self, node):
        return self._intern.setdefault(node, node)


class TestInterning:
    def test_blackjack_frames_build_in_linear_time(self):
        circuit = lenient(ALL_PROGRAMS["blackjack"], name="blackjack")
        ctx = LintContext(circuit.design)
        enc = Encoder(ctx, ExprFactory())
        counts = []
        start = time.perf_counter()
        for t in range(9):
            for ci in ctx.multi_driver_classes():
                enc.conflict(ci, t)
            counts.append(enc.f.node_count)
        assert time.perf_counter() - start < 10
        steps = {b - a for a, b in zip(counts[1:], counts[2:])}
        assert len(steps) == 1  # every frame adds the same node count

    def test_deep_shared_dag(self):
        f = ExprFactory()
        x, y = f.var("x"), f.var("y")
        e = x
        for _ in range(48):
            # Each level references the previous one twice.
            e = f.gate("AND", (f.gate("OR", (e, y)), f.gate("XOR", (e, x))))
        assert f.node_count == 4 + 2 + 3 * 48
        assert isinstance(solve((e,)), (Sat, Unsat))

    @pytest.mark.parametrize("name", ["blackjack", "memory", "routing",
                                      "patternmatch"])
    def test_identity_keys_intern_like_structure(self, name):
        circuit = lenient(ALL_PROGRAMS[name], name=name)
        ctx = LintContext(circuit.design)
        counts = []
        for factory in (ExprFactory(), _StructuralFactory()):
            enc = Encoder(ctx, factory)
            for t in range(3):
                for ci in range(ctx.n):
                    enc.peek(ci, t)
                for ci in ctx.multi_driver_classes():
                    enc.conflict(ci, t)
            counts.append(factory.node_count)
        assert counts[0] == counts[1]

    def test_corpus_clause_counts_unchanged(self):
        """``solver.clauses`` of corpus reports, as the structural
        interning counted them (the README quotes the first)."""
        adders = ALL_PROGRAMS["adders"]
        report = check_equivalence(lenient(adders, "adder4", "a"),
                                   lenient(adders, "adder", "b"))
        assert report.clauses == 33
        want = {"adders": 38, "chessboard": 28, "falsepath": 23,
                "htree": 6, "mux4": 21, "routing": 164, "section8": 11,
                "trees": 6}
        for name, clauses in want.items():
            report = prove(lenient(ALL_PROGRAMS[name], name=name))
            assert report.clauses == clauses, name
        ripple8 = prove(lenient(ripple_carry(8), "adder", "ripple8"))
        assert ripple8.clauses == 70


# ---------------------------------------------------------------------------
# The budget sweep: a smaller budget may only lose verdicts.
# ---------------------------------------------------------------------------

_BUDGETS = (0, 1, 4, 16, 64, 256, 5000)
_UNBOUNDED = 10 ** 9


def _sweep_corpus():
    for name, text in sorted(ALL_PROGRAMS.items()):
        yield name, lenient(text, name=name)
    yield "ripple8", lenient(ripple_carry(8), "adder", "ripple8")


def _prove_verdicts(circuit, budget):
    report = prove(circuit, config=FormalConfig(depth=2, budget=budget))
    return {r.prop: r.verdict for r in report.results}


def _lint_verdicts(circuit, budget):
    report = run_lint(circuit, LintConfig(prover_budget=budget))
    return {(n.net, p.a, p.b): p.verdict
            for n in report.prover.nets for p in n.pairs}


def _timing_verdicts(circuit, budget):
    report = analyze_timing(circuit, budget=budget)
    out = {}
    for p in report.paths:
        out[tuple(h["net"] for h in p["nets"])] = p["sensitization"]
    for p in report.pruned:
        out[(p["startpoint"], p["endpoint"], p["delay"])] = "proved-false"
    return out


def _equiv_pairs():
    adders = ALL_PROGRAMS["adders"]
    trees = ALL_PROGRAMS["trees"]
    r8 = ripple_carry(8)
    mutant = r8.replace("cout := OR(h1.cout, h2.cout)",
                        "cout := AND(h1.cout, h2.cout)")
    yield (lenient(adders, "adder4", "a"), lenient(adders, "adder", "b"))
    yield (lenient(trees, "a", "a"), lenient(trees, "b", "b"))
    yield (lenient(r8, "adder", "a"), lenient(mutant, "adder", "b"))


def _assert_only_lost(low, full, undecided, where):
    for key, verdict in low.items():
        if verdict != undecided and key in full:
            assert verdict == full[key], (where, key, verdict, full[key])


class TestBudgetSweep:
    @pytest.mark.parametrize("kind", ["prove", "lint", "timing"])
    def test_definite_verdicts_match_unbounded(self, kind):
        verdicts, undecided = {
            "prove": (_prove_verdicts, "unknown"),
            "lint": (_lint_verdicts, "unknown"),
            "timing": (_timing_verdicts, "assumed"),
        }[kind]
        lost = 0
        for name, circuit in _sweep_corpus():
            full = verdicts(circuit, _UNBOUNDED)
            for budget in _BUDGETS:
                low = verdicts(circuit, budget)
                if kind != "timing":  # timing enumerates by pruning
                    assert low.keys() == full.keys(), (name, budget)
                _assert_only_lost(low, full, undecided, (name, budget))
                lost += sum(1 for k, v in low.items()
                            if v == undecided and full.get(k) != undecided)
        if kind == "prove":
            assert lost > 0  # the sweep does reach undecided verdicts

    def test_equivalence(self):
        for a, b in _equiv_pairs():
            full = check_equivalence(a, b, FormalConfig(budget=_UNBOUNDED))
            assert full.verdict != "unknown"
            for budget in _BUDGETS:
                low = check_equivalence(a, b, FormalConfig(budget=budget))
                assert low.verdict in ("unknown", full.verdict), budget
