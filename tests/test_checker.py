"""Checker internals: dependency graph, topological order, diagnostics."""

import pytest

import repro
from repro.core import ClassView, checker, elaborate
from repro.lang import CheckError, parse

from zeus_test_utils import compile_ok


def design_of(text, top=None):
    return elaborate(parse(text), top=top)


SIMPLE = """
TYPE t = COMPONENT (IN a, b: boolean; OUT y: boolean) IS
SIGNAL s: boolean;
BEGIN
    s := AND(a, b);
    y := NOT s
END;
SIGNAL u: t;
"""


class TestDependencyGraph:
    def test_edges_follow_dataflow(self):
        d = design_of(SIMPLE)
        deps = ClassView(d.netlist).net_deps
        names = {n.id: n.name for n in d.netlist.nets}
        # y depends (transitively) on s's gate; s's gate on a and b.
        y = next(i for i, n in names.items() if n == "u.y")
        assert deps[y]  # the NOT gate output

    def test_topological_order_is_consistent(self):
        d = design_of(SIMPLE)
        view = ClassView(d.netlist)
        pos = {ci: i for i, ci in enumerate(view.topo_order)}
        for dst, srcs in view.deps.items():
            for src in srcs:
                assert pos[src] < pos[dst]

    def test_reg_breaks_cycle(self):
        d = design_of(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL r: REG;
            BEGIN r.in := XOR(a, r.out); y := r.out END;
            SIGNAL u: t;
            """
        )
        view = ClassView(d.netlist)
        assert view.topo_order is not None and view.cycle == []

    def test_cycle_message_names_nets(self):
        d = design_of(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL s1, s2: boolean;
            BEGIN s1 := NOT s2; s2 := NOT s1; y := s1 END;
            SIGNAL u: t;
            """
        )
        with pytest.raises(CheckError) as err:
            checker.check(d)
        assert "s1" in str(err.value) or "s2" in str(err.value)


class TestDiagnostics:
    def test_lenient_collects_multiple_errors(self):
        circuit = repro.compile_text(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL p, q: boolean;
            BEGIN
                p := 1; p := 0;
                q := 1; q := 0;
                y := a; * := p; * := q
            END;
            SIGNAL u: t;
            """,
            strict=False,
        )
        assert len(circuit.diagnostics.errors) >= 2

    def test_undriven_read_warns(self):
        circuit = repro.compile_text(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL ghost: boolean;
            BEGIN y := AND(a, ghost) END;
            SIGNAL u: t;
            """,
            strict=False,
        )
        warnings = [d.message for d in circuit.diagnostics.warnings]
        assert any("ghost" in w for w in warnings)

    def test_clean_program_no_diagnostics(self):
        circuit = compile_ok(SIMPLE)
        assert not circuit.diagnostics.errors
        assert not circuit.diagnostics.warnings

    def test_diagnostic_rendering_includes_location(self):
        circuit = repro.compile_text(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL p: boolean;
            BEGIN p := 1; p := 0; y := a; * := p END;
            SIGNAL u: t;
            """,
            strict=False,
        )
        text = circuit.diagnostics.render()
        assert "unconditional" in text


class TestNetlistQueries:
    def test_stats_keys(self):
        circuit = compile_ok(SIMPLE)
        stats = circuit.stats()
        assert set(stats) == {
            "nets", "gates", "connections", "registers", "alias_merges"
        }

    def test_port_lookup(self):
        circuit = compile_ok(SIMPLE)
        assert circuit.netlist.port("a").mode == "IN"
        with pytest.raises(KeyError):
            circuit.netlist.port("zz")

    def test_alias_class(self):
        circuit = compile_ok(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean;
                                p, q: multiplex) IS
            BEGIN p == q; y := a; * := p END;
            SIGNAL u: t;
            """
        )
        nl = circuit.netlist
        p = nl.port("p").nets[0]
        q = nl.port("q").nets[0]
        assert nl.find(p) is nl.find(q)
        assert {n.name for n in nl.alias_class(p)} == {"u.p", "u.q"}

    def test_describe(self):
        circuit = compile_ok(SIMPLE)
        text = circuit.netlist.describe()
        assert "gates" in text and "registers" in text
