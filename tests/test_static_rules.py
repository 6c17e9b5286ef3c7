"""The static type rules of section 4.7, rule by rule.

Each test exercises one row of the paper's type-rule tables (1)-(3) or
one of the scattered textual rules, in both the accepting and the
rejecting direction.
"""

import re

import pytest

import repro
from repro.lang import CheckError, TypeError_

from zeus_test_utils import compile_ok


def rejects(text, match, top=None):
    with pytest.raises((CheckError, TypeError_), match=match):
        repro.compile_text(text, top=top)


WRAP = """
TYPE inner = COMPONENT (IN a: boolean; OUT y: boolean; z: multiplex) IS
BEGIN y := a END;
t = COMPONENT (IN a, b: boolean; OUT y: boolean; zz: multiplex) IS
SIGNAL sub: inner;
       loc: boolean;
       m: multiplex;
BEGIN
    {body}
END;
SIGNAL u: t;
"""


def wrap(body):
    return WRAP.replace("{body}", body)


class TestUnconditionalAssignment:
    """Table (1), unconditional row: all four kind combinations legal,
    but exactly one assignment in total."""

    def test_boolean_from_boolean(self):
        compile_ok(wrap("y := a; sub(a, *, *); zz == *; loc := b; * := loc"))

    def test_multiplex_from_boolean(self):
        compile_ok(wrap("m := a; * := m; y := a; sub(a, *, *); zz == *"))

    def test_boolean_from_multiplex(self):
        compile_ok(wrap("y := sub.z; sub(a, *, *); zz == *"))

    def test_double_unconditional_rejected(self):
        rejects(wrap("y := a; y := b; sub(a,*,*); zz == *"),
                "unconditional assignments")

    def test_power_ground_short_rejected(self):
        # The paper's canonical example: x := 1; x := 0.
        rejects(wrap("loc := 1; loc := 0; y := a; sub(a,*,*); zz == *"),
                "unconditional")

    def test_locked_multiplex_rejected(self):
        # mux := unconditional locks the signal against further drives.
        rejects(wrap("m := a; IF b THEN m := a END; y := a; sub(a,*,*); zz == *"),
                "conditionally and unconditionally")


class TestConditionalAssignment:
    """Table (1), conditional row: target must be multiplex, except the
    exception-1 signals."""

    def test_conditional_multiplex_ok(self):
        compile_ok(wrap(
            "IF a THEN m := b END; IF NOT a THEN m := 0 END; * := m; "
            "y := a; sub(a,*,*); zz == *"
        ))

    def test_conditional_local_boolean_rejected(self):
        rejects(wrap("IF a THEN loc := b END; * := loc; y := a; sub(a,*,*); zz == *"),
                "conditional assignment to boolean")

    def test_exception1_formal_out_ok(self):
        # A formal OUT parameter may be assigned conditionally.
        compile_ok(wrap("IF a THEN y := b END; sub(a,*,*); zz == *"))

    def test_exception1_instance_in_pin_ok(self):
        # An IN parameter of an instantiated component likewise.
        compile_ok(wrap(
            "IF a THEN sub.a := b END; * := sub.y; sub.z == *; y := a; zz == *"
        ))

    def test_conditional_and_unconditional_mixed_rejected(self):
        rejects(wrap("y := a; IF b THEN y := 0 END; sub(a,*,*); zz == *"),
                "conditionally and unconditionally")


class TestAliasing:
    """Table (2): == needs multiplex on both sides, except exception 1."""

    def test_mux_mux_ok(self):
        compile_ok(wrap("m == zz; * := m; y := a; sub(a,*,*)"))

    def test_boolean_boolean_rejected(self):
        rejects(wrap("loc == b; y := a; sub(a,*,*); zz == *"),
                "alias boolean")

    def test_local_boolean_mux_rejected(self):
        rejects(wrap("loc == m; y := a; sub(a,*,*); zz == *"),
                "alias boolean")

    def test_exception1_in_pin_with_mux_ok(self):
        compile_ok(wrap("sub.a == m; * := sub.y; sub.z == *; y := a; zz == *"))

    def test_exception1_formal_out_with_mux_ok(self):
        compile_ok(wrap("y == m; IF a THEN m := b END; sub(a,*,*); zz == *"))

    def test_alias_in_conditional_rejected(self):
        rejects(wrap("IF a THEN zz == m END; y := a; sub(a,*,*)"),
                "conditional")

    def test_aliased_boolean_not_also_assigned(self):
        # "If a signal of type boolean is assigned with == then it may not
        # unconditionally be assigned with :=".
        rejects(wrap("sub.a == m; sub.a := b; * := sub.y; sub.z == *; y := a; zz == *"),
                "aliased with == and also")

    def test_width_mismatch_rejected(self):
        rejects(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean;
                                p: ARRAY [1..2] OF multiplex;
                                q: ARRAY [1..3] OF multiplex) IS
            BEGIN p == q; y := a END;
            SIGNAL u: t;
            """,
            "different widths",
        )


class TestParameterDirections:
    def test_assign_to_formal_in_rejected(self):
        rejects(wrap("a := b; y := a; sub(a,*,*); zz == *"),
                "formal IN parameter")

    def test_assign_to_instance_out_rejected(self):
        rejects(wrap("sub.y := b; y := a; sub(a,*,*); zz == *"),
                "OUT parameter .* instantiated")

    def test_unstructured_in_must_be_boolean(self):
        rejects(
            """
            TYPE t = COMPONENT (IN a: multiplex; OUT y: boolean) IS
            BEGIN y := a END;
            SIGNAL u: t;
            """,
            "must be boolean",
        )

    def test_unstructured_inout_must_be_multiplex(self):
        rejects(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean; z: boolean) IS
            BEGIN y := a; z == * END;
            SIGNAL u: t;
            """,
            "must be multiplex",
        )

    def test_record_types_exempt_from_mode_kinds(self):
        # The paper's own bus record has an INOUT boolean field.
        compile_ok(
            """
            TYPE bo3 = ARRAY [1..3] OF boolean;
            bus = COMPONENT (r, s, t: bo3; u: boolean);
            w = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL b: bus;
            BEGIN b.u := a; y := b.u END;
            SIGNAL top: w;
            """
        )


def _whole(message):
    """A ``match`` pattern for exactly *message*."""
    return f"^{re.escape(message)}$"


class TestFeedbackLoops:
    def test_combinational_loop_rejected(self):
        rejects(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL s1, s2: boolean;
            BEGIN
                s1 := NOT s2;
                s2 := NOT s1;
                y := AND(a, s1)
            END;
            SIGNAL u: t;
            """,
            _whole("combinational feedback loop (not through a register): "
                   "u.s1 -> $not0 -> u.s2 -> $not1 -> u.s1"),
        )

    def test_loop_through_register_ok(self):
        compile_ok(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL r: REG;
            BEGIN
                r.in := XOR(a, r.out);
                y := r.out
            END;
            SIGNAL u: t;
            """
        )

    def test_self_loop_rejected(self):
        rejects(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL s: ARRAY [1..2] OF multiplex;
            BEGIN
                IF a THEN s[1] := s[1] END;
                y := a; * := s
            END;
            SIGNAL u: t;
            """,
            _whole("combinational feedback loop (not through a register): "
                   "u.s[1] -> u.s[1]"),
        )


class TestUnusedPorts:
    def test_unused_port_rejected(self):
        rejects(wrap("* := sub.y; y := a; zz == *"), "neither used nor assigned")

    def test_star_closes_port(self):
        compile_ok(wrap("sub(*, *, *); y := a; zz == *"))

    def test_completely_disconnected_is_legal(self):
        # "it is legal to have completely disconnected components".
        compile_ok(
            """
            TYPE inner = COMPONENT (IN a: boolean; OUT y: boolean) IS
            BEGIN y := a END;
            t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL ghost: inner;
            BEGIN y := a END;
            SIGNAL u: t;
            """
        )


class TestSequentialConsistency:
    def test_consistent_order_ok(self):
        compile_ok(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL s: boolean;
            BEGIN
                SEQUENTIAL
                    s := NOT a;
                    y := NOT s;
                END
            END;
            SIGNAL u: t;
            """
        )

    def test_inconsistent_order_rejected(self):
        rejects(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL s: boolean;
            BEGIN
                SEQUENTIAL
                    y := NOT s;
                    s := NOT a;
                END
            END;
            SIGNAL u: t;
            """,
            "SEQUENTIAL order incompatible",
        )

    def test_parallel_inside_sequential(self):
        compile_ok(
            """
            TYPE t = COMPONENT (IN a, b: boolean; OUT y: boolean) IS
            SIGNAL s1, s2: boolean;
            BEGIN
                SEQUENTIAL
                    PARALLEL s1 := NOT a; s2 := NOT b END;
                    y := AND(s1, s2);
                END
            END;
            SIGNAL u: t;
            """
        )


class TestIfRestrictions:
    def test_condition_must_be_single_bit(self):
        rejects(
            """
            TYPE t = COMPONENT (IN a: ARRAY [1..2] OF boolean;
                                OUT y: boolean) IS
            BEGIN
                IF a THEN y := 1 END
            END;
            SIGNAL u: t;
            """,
            "single basic signal",
        )

    def test_connection_inside_if_becomes_guarded(self):
        compile_ok(
            """
            TYPE inv = COMPONENT (IN a: boolean; OUT y: boolean) IS
            BEGIN y := NOT a END;
            t = COMPONENT (IN a, en: boolean; OUT y: boolean; z: multiplex) IS
            SIGNAL g: inv;
            BEGIN
                IF en THEN g(a, z) END;
                * := g.y;
                y := a
            END;
            SIGNAL u: t;
            """
        )
