"""The shared SAT core of the formal-verification stack.

This module is the solver the whole proof stack stands on: the lint
driver-exclusivity prover (:mod:`repro.lint.prover`), the bounded model
checker (:mod:`repro.formal.bmc`), the sequential equivalence checker
(:mod:`repro.formal.equiv`) and the timing false-path pruner
(:mod:`repro.timing.falsepath`) all encode their questions into one
expression language and discharge them through one clause-learning
search, :func:`solve`.  The expression language was extracted from the
PR-3 prover and extended with the node kinds a *sequential* encoding
needs (multiplex buses, REG latches, amplifiers, miter comparators).

Expression language — nested tuples, interned when built through
:class:`ExprFactory` (the intern key holds the children's identities,
so building a frame never re-hashes a shared sub-DAG):

``("const", v)``
    A constant; ``v`` in ``{0, 1, "U", "Z"}`` ("U" = UNDEF, "Z" = the
    high-impedance NOINFL state, legal only on multiplex nets).
``("var", key)``
    A free variable (primary input, register state, RANDOM source, or a
    net the encoder cannot model).  Variables range over the *defined*
    values {0, 1} unless a solver domain says otherwise.
``("gate", op, args)``
    A predefined gate; semantics come from
    :data:`repro.core.values.NETLIST_GATE_FUNCTIONS` — the same table
    the simulator evaluates, so prover and simulator cannot disagree on
    a single gate.
``("amp", e)``
    The implicit multiplex->boolean amplifier (section 3.2): "Z" reads
    as "U", everything else passes through.
``("bus", ((guard, src), ...))``
    Multiplex resolution over conditional drivers, mirroring the
    runtime rule exactly: a guard of 0 contributes nothing, a guard of
    "U" poisons the net to "U" (maybe-drive), two or more driving
    (non-"Z") contributions give "U", one gives its value, none gives
    "Z".
``("latch", d, prev)``
    One REG timestep: the new state is ``d`` unless ``d`` is "Z", in
    which case the register keeps ``prev``.
``("conflict", ((guard, src), ...))``
    1 iff two or more drivers *definitely* contribute a driving value —
    the exact condition under which the runtime multi-driver check
    fires.  Never "U": this node is a property, not a signal.
``("differs", a, b)``
    Miter comparator: 1 iff the two operand values differ (where "U"
    differs from 0 and 1).  Never "U".
``("isundef", e)``
    1 iff the operand is "U".  Never "U".

Partial evaluation (:func:`eval_expr`) returns ``None`` when the value
still depends on unassigned variables; everything short-circuits exactly
like the section-8 firing rules.  A value it does return holds under
every completion of the assignment.

The search (:mod:`repro.formal.cdcl`).  A
:class:`~repro.formal.cdcl.Solver` encodes the DAG below its
questions' targets and blockers as CNF with two booleans per node, in
the lane kernel's plane convention: ``p0`` = "may be 0", ``p1`` = "may
be 1", so NOINFL is 00 and UNDEF is 11.  Gate, amplifier, latch,
comparator and ``isundef`` clauses are the prime implicates of each
node's truth table over its children's value domains (n-ary gates and
multi-position EQUAL are split into binary nodes first; the split is
exact over {0, 1, UNDEF}); ``bus`` and ``conflict`` are encoded
structurally, linear in their driver count; constants are unit clauses.
A target must be exactly 1 and a blocker anything but 1; both are
assumptions of one question, so a run keeps one solver, encodes each
node once and asks it every question.  A CDCL search (watched
literals, first-UIP learning, VSIDS over the question's cone, restarts)
decides each question.  Its budget counts *conflicts* per question,
and so does :attr:`SolverStats.nodes`.  A SAT model is cut down to a
partial witness: every variable :func:`eval_expr` does not need to
settle each target to 1 and each blocker off 1 is unassigned, RANDOM
and register variables first, so a witness names as little
uncontrollable state as it can.

Soundness notes.  The gate/bus/latch/amp fragment is Kleene-monotone:
an expression that evaluates to 1 under a partial two-valued assignment
evaluates to 1 under every runtime refinement (UNDEF inputs can never
*create* a 1), so an UNSAT verdict over {0,1} assignments of the
support really does cover all runtime behaviours — this is what makes
``conflict`` refutations complete even against undefined inputs.
``differs`` and ``isundef`` are *not* monotone (UNDEF inputs can make
two designs differ), so proofs about them quantify over fully-defined
primary inputs only; the BMC/equiv layers state that contract in their
verdicts.  The CNF changes none of this: a variable's rails admit
exactly the values of its domain (default {0, 1}), and every node's
clauses admit exactly the value :func:`eval_expr` computes from its
children's, so the CNF is satisfiable iff some assignment over the
domains settles the targets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.values import Logic, NETLIST_GATE_FUNCTIONS

_TRUE = ("const", 1)
_FALSE = ("const", 0)
_UNDEF = ("const", "U")
_NOINFL = ("const", "Z")

_LOGIC_TO_VAL = {Logic.ZERO: 0, Logic.ONE: 1, Logic.UNDEF: "U"}

#: Solver value -> Logic for gate evaluation.  "Z" amplifies to UNDEF on
#: the way into a gate input (defensive: factory-built gates amp their
#: arguments already).
_TO_LOGIC = {0: Logic.ZERO, 1: Logic.ONE, "U": Logic.UNDEF,
             "Z": Logic.UNDEF, None: None}
_FROM_LOGIC = {Logic.ZERO: 0, Logic.ONE: 1, Logic.UNDEF: "U", None: None}


def apply_op(op: str, vals: list):
    """Evaluate one gate over solver values {0, 1, "U", None}.

    Routed through :data:`NETLIST_GATE_FUNCTIONS` — the simulator's own
    gate table — so the solver can never disagree with the runtime on a
    single gate (the cross-check test in tests/test_formal.py holds this
    invariant over the full value lattice).
    """
    fn = NETLIST_GATE_FUNCTIONS.get(op)
    if fn is None:
        raise ValueError(f"solver cannot model gate op {op!r}")
    return _FROM_LOGIC[fn([_TO_LOGIC[v] for v in vals])]


# ---------------------------------------------------------------------------
# Evaluation under a partial assignment.
# ---------------------------------------------------------------------------


def eval_expr(expr: tuple, asn: dict, memo: dict | None = None):
    """Evaluate under a partial two-valued assignment.

    Returns 0, 1, ``"U"`` (undefined at runtime), ``"Z"`` (floating
    multiplex), or None (still depends on unassigned variables).
    Short-circuits exactly like the section-8 firing rules: a value it
    returns holds under every completion of *asn*."""
    if memo is None:
        memo = {}
    return _eval(expr, asn, memo)


def _eval(e: tuple, asn: dict, memo: dict):
    tag = e[0]
    if tag == "const":
        return e[1]
    if tag == "var":
        return asn.get(e[1])
    key = id(e)
    if key in memo:
        return memo[key]
    if tag == "gate":
        out = apply_op(e[1], [_eval(a, asn, memo) for a in e[2]])
    elif tag == "amp":
        v = _eval(e[1], asn, memo)
        out = "U" if v == "Z" else v
    elif tag == "latch":
        d = _eval(e[1], asn, memo)
        if d is None:
            out = None
        elif d == "Z":
            out = _eval(e[2], asn, memo)
        else:
            out = d
    elif tag == "bus":
        out = _eval_bus(e[1], asn, memo)
    elif tag == "conflict":
        out = _eval_conflict(e[1], asn, memo)
    elif tag == "differs":
        a = _eval(e[1], asn, memo)
        b = _eval(e[2], asn, memo)
        out = None if (a is None or b is None) else (1 if a != b else 0)
    elif tag == "isundef":
        v = _eval(e[1], asn, memo)
        out = None if v is None else (1 if v == "U" else 0)
    else:
        raise ValueError(f"solver cannot evaluate node tag {tag!r}")
    memo[key] = out
    return out


def _eval_bus(pairs: tuple, asn: dict, memo: dict):
    """Multiplex resolution, mirroring the levelized OPC_CLASS rule:
    guard 0 -> no contribution; guard not fully 1 ("U"/"Z") -> the net
    is "U" regardless of every source (maybe-drive poisons); >= 2
    driving contributions -> "U"; one -> its value; none -> "Z"."""
    driving = None
    count = 0
    unknown = False
    for g, s in pairs:
        gv = _eval(g, asn, memo)
        if gv == 0:
            continue
        if gv in ("U", "Z"):
            return "U"
        if gv is None:
            # The guard may yet settle to "U" (poison) — everything
            # about this net is open until it does.
            unknown = True
            continue
        # gv == 1
        sv = _eval(s, asn, memo)
        if sv == "Z":
            continue
        if sv is None:
            unknown = True
            continue
        count += 1
        driving = sv
    if count >= 2:
        return "U"
    if unknown:
        return None
    if count == 1:
        return driving
    return "Z"


def _eval_conflict(pairs: tuple, asn: dict, memo: dict):
    """1 iff >= 2 drivers definitely contribute a driving value.  A
    guard of "U" never counts (maybe-drive poisons the value but the
    runtime multi-driver check does not fire on it)."""
    definite = 0
    possible = 0
    for g, s in pairs:
        gv = _eval(g, asn, memo)
        if gv in (0, "U", "Z"):
            continue
        sv = _eval(s, asn, memo)
        if sv == "Z":
            continue
        if gv == 1 and sv is not None:
            definite += 1
        else:  # guard or source still unknown
            possible += 1
    if definite >= 2:
        return 1
    if definite + possible < 2:
        return 0
    return None


def children_of(e: tuple) -> tuple:
    """Immediate sub-expressions of a node, for generic traversal."""
    tag = e[0]
    if tag in ("const", "var"):
        return ()
    if tag == "gate":
        return e[2]
    if tag in ("amp", "isundef"):
        return (e[1],)
    if tag in ("latch", "differs"):
        return (e[1], e[2])
    if tag in ("bus", "conflict"):
        return tuple(x for pair in e[1] for x in pair)
    raise ValueError(f"solver cannot traverse node tag {tag!r}")


def support_of(expr: tuple, memo: dict | None = None) -> tuple:
    """All var keys reachable from *expr*, in deterministic order."""
    if memo is not None:
        cached = memo.get(id(expr))
        if cached is not None:
            return cached
    out: list[tuple] = []
    seen_vars: set[tuple] = set()
    seen_nodes: set[int] = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if id(e) in seen_nodes:
            continue
        seen_nodes.add(id(e))
        if e[0] == "var":
            if e[1] not in seen_vars:
                seen_vars.add(e[1])
                out.append(e[1])
        else:
            stack.extend(children_of(e))
    out.sort()
    result = tuple(out)
    if memo is not None:
        memo[id(expr)] = result
    return result


# ---------------------------------------------------------------------------
# Interning + folding factory.
# ---------------------------------------------------------------------------


def _can_float(e: tuple) -> bool:
    """Can this expression evaluate to "Z"?  Only buses (all drivers
    off) and the NOINFL constant; every other node is boolean-domain."""
    return e[0] == "bus" or e == _NOINFL


class ExprFactory:
    """Builds structurally-interned, constant-folded expressions.

    Interning makes structural equality pointer equality, which is what
    lets the id-keyed evaluation memo and the CNF encoder deduplicate
    shared cones — the lever that keeps k-cycle unrollings tractable.
    A node is interned under its tag/op and its (already interned)
    children's identities, so interning costs O(arity), never a walk of
    the sub-DAG.  The count of distinct interned nodes is reported as
    the ``clauses`` solver metric in ``zeus.proof/1``."""

    def __init__(self):
        self._intern: dict[tuple, tuple] = {}
        for node in (_TRUE, _FALSE, _UNDEF, _NOINFL):
            self._intern[node] = node

    TRUE = _TRUE
    FALSE = _FALSE
    UNDEF = _UNDEF
    NOINFL = _NOINFL

    @property
    def node_count(self) -> int:
        return len(self._intern)

    def _n(self, node: tuple) -> tuple:
        tag = node[0]
        if tag in ("const", "var"):
            key = node
        elif tag == "gate":
            key = (tag, node[1], tuple(map(id, node[2])))
        elif tag in ("bus", "conflict"):
            key = (tag, tuple((id(g), id(s)) for g, s in node[1]))
        else:
            key = (tag, *map(id, node[1:]))
        return self._intern.setdefault(key, node)

    def const(self, v) -> tuple:
        return self._n(("const", v))

    def var(self, key) -> tuple:
        return self._n(("var", key))

    def gate(self, op: str, args) -> tuple:
        args = tuple(args)
        folded = apply_op(
            op, [a[1] if a[0] == "const" else None for a in args])
        if folded is not None:
            return self.const(folded)
        if op in ("AND", "OR"):
            ident = 1 if op == "AND" else 0
            kept: list[tuple] = []
            for a in args:
                if (a[0] == "const" and a[1] == ident
                        or any(a is k for k in kept)):
                    continue
                kept.append(a)
            if len(kept) == 1:
                return kept[0]
            args = tuple(kept)
        elif op == "NOT":
            a = args[0]
            if a[0] == "gate" and a[1] == "NOT":
                return a[2][0]
        return self._n(("gate", op, args))

    def not_(self, e: tuple) -> tuple:
        return self.gate("NOT", (e,))

    def and_(self, args) -> tuple:
        args = tuple(args)
        if not args:
            return _TRUE
        if len(args) == 1:
            return args[0]
        return self.gate("AND", args)

    def or_(self, args) -> tuple:
        args = tuple(args)
        if not args:
            return _FALSE
        if len(args) == 1:
            return args[0]
        return self.gate("OR", args)

    def amp(self, e: tuple) -> tuple:
        if e[0] == "const":
            return self.const("U" if e[1] == "Z" else e[1])
        if not _can_float(e):
            return e
        return self._n(("amp", e))

    def latch(self, d: tuple, prev: tuple) -> tuple:
        if d[0] == "const":
            return prev if d[1] == "Z" else d
        if not _can_float(d):
            return d
        return self._n(("latch", d, prev))

    def bus(self, pairs) -> tuple:
        kept: list[tuple] = []
        for g, s in pairs:
            if g[0] == "const":
                if g[1] == 0:
                    continue
                if g[1] in ("U", "Z"):
                    # A maybe-driving guard poisons the value to "U" no
                    # matter what the other drivers do.
                    return _UNDEF
                g = _TRUE
                if s == _NOINFL:
                    continue
            kept.append((g, s))
        if not kept:
            return _NOINFL
        if len(kept) == 1 and kept[0][0] is _TRUE:
            return kept[0][1]
        definite = sum(1 for g, s in kept
                       if g is _TRUE and not _can_float(s))
        if definite >= 2:
            return _UNDEF
        return self._n(("bus", tuple(kept)))

    def conflict(self, pairs) -> tuple:
        kept: list[tuple] = []
        definite = 0
        for g, s in pairs:
            if g[0] == "const" and g[1] in (0, "U", "Z"):
                continue
            if s == _NOINFL:
                continue
            if g[0] == "const" and not _can_float(s):
                definite += 1
            kept.append((g, s))
        if definite >= 2:
            return _TRUE
        if len(kept) < 2:
            return _FALSE
        return self._n(("conflict", tuple(kept)))

    def differs(self, a: tuple, b: tuple) -> tuple:
        if a is b:
            return _FALSE
        if a[0] == "const" and b[0] == "const":
            return _TRUE if a[1] != b[1] else _FALSE
        return self._n(("differs", a, b))

    def isundef(self, e: tuple) -> tuple:
        if e[0] == "const":
            return _TRUE if e[1] == "U" else _FALSE
        if e[0] in ("conflict", "differs", "isundef"):
            return _FALSE
        return self._n(("isundef", e))


# ---------------------------------------------------------------------------
# Cone extraction over a lint/semantics context (unchanged from PR 3).
# ---------------------------------------------------------------------------


class ConeBuilder:
    """Builds boolean expressions for net classes by tracing the gate
    cone back to *support variables*: primary inputs, register outputs,
    RANDOM sources, and nets the builder cannot model precisely
    (multi-driven, cyclic, or oversized cones).

    ``ctx`` is duck-typed (any object with the
    :class:`repro.core.view.ClassView` surface: ``is_input``,
    ``reg_q_of``, ``gates_of``, ``drivers_of``, ``idx``)."""

    def __init__(self, ctx, max_nodes: int = 5000):
        self.ctx = ctx
        self.max_nodes = max_nodes
        self.nodes = 0
        self._memo: dict[int, tuple] = {}
        self._building: set[int] = set()
        #: var key -> kind: input | reg | random | opaque | cyclic | undriven
        self.var_kinds: dict[tuple, str] = {}
        self._support_memo: dict[int, tuple] = {}

    # -- construction --------------------------------------------------------

    def expr(self, ci: int) -> tuple:
        cached = self._memo.get(ci)
        if cached is not None:
            return cached
        if ci in self._building:
            return self._var(("net", ci), "cyclic")
        self._building.add(ci)
        try:
            e = self._build(ci)
        finally:
            self._building.discard(ci)
        self._memo[ci] = e
        return e

    def _var(self, key: tuple, kind: str) -> tuple:
        self.var_kinds.setdefault(key, kind)
        return ("var", key)

    def _build(self, ci: int) -> tuple:
        ctx = self.ctx
        if ctx.is_input[ci]:
            return self._var(("net", ci), "input")
        if ci in ctx.reg_q_of:
            return self._var(("net", ci), "reg")
        gates = ctx.gates_of.get(ci, [])
        drivers = ctx.drivers_of[ci]
        if len(gates) == 1 and not drivers:
            return self._gate_expr(gates[0])
        if not gates and len(drivers) == 1 and drivers[0].uncond:
            drv = drivers[0]
            if drv.const is not None:
                val = _LOGIC_TO_VAL.get(drv.const)
                # A NOINFL constant reads as UNDEF through the implicit
                # amplifier (section 3.2), and UNDEF can never become 1.
                return ("const", val if val is not None else "U")
            return self.expr(drv.src)
        if not gates and not drivers:
            return self._var(("net", ci), "undriven")
        return self._var(("net", ci), "opaque")

    def _gate_expr(self, gate) -> tuple:
        if gate.op == "RANDOM":
            return self._var(("rand", gate.id), "random")
        self.nodes += 1
        if self.nodes > self.max_nodes:
            return self._var(("net", self.ctx.idx(gate.output)), "opaque")
        args = tuple(self.expr(self.ctx.idx(i)) for i in gate.inputs)
        return ("gate", gate.op, args)

    # -- support -------------------------------------------------------------

    def support(self, expr: tuple) -> tuple:
        """All var keys reachable from *expr*, in deterministic order."""
        return support_of(expr, self._support_memo)


# ---------------------------------------------------------------------------
# Guard-structure helpers shared by the pattern layer of the lint prover.
# ---------------------------------------------------------------------------


def and_factors(e: tuple) -> list[tuple]:
    """Flatten an AND-tree into its conjunction factors."""
    if e[0] == "gate" and e[1] == "AND":
        out: list[tuple] = []
        for a in e[2]:
            out.extend(and_factors(a))
        return out
    return [e]


def literal_of(e: tuple):
    """(key, polarity) for ``v`` / ``NOT v`` factors, else None."""
    if e[0] == "var":
        return (e[1], True)
    if e[0] == "gate" and e[1] == "NOT" and e[2][0][0] == "var":
        return (e[2][0][1], False)
    return None


def equal_const_map(e: tuple) -> dict | None:
    """For an EQUAL factor, map each non-constant operand expression to
    the constant it is compared against (positions where exactly one
    side is a 0/1 constant)."""
    if e[0] != "gate" or e[1] != "EQUAL":
        return None
    args = e[2]
    half = len(args) // 2
    out: dict = {}
    for x, y in zip(args[:half], args[half:]):
        for a, b in ((x, y), (y, x)):
            if b[0] == "const" and b[1] in (0, 1) and a[0] != "const":
                out[a] = b[1]
    return out


# ---------------------------------------------------------------------------
# The search.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sat:
    """A (partial) witness assignment: var key -> 0 / 1 / "U"."""

    witness: dict


@dataclass(frozen=True)
class Unsat:
    """No assignment over the domains settles the targets."""


@dataclass(frozen=True)
class Unknown:
    """The conflict budget ran out before a verdict."""

    reason: str


@dataclass
class SolverStats:
    """Cumulative search-effort counters for one proof run.  Reported
    in ``zeus.proof/1`` and the ``formal`` section of zeus.metrics/1."""

    decisions: int = 0      # CDCL branch decisions
    nodes: int = 0          # conflicts (the unit the budget bounds)
    sat_calls: int = 0      # individual solve() invocations
    budget_exhausted: bool = False


def _is_state(key) -> bool:
    """Variables a witness should avoid: RANDOM sources and register
    state (the frame encoder's ``reg``/``rand`` keys and the cone
    builder's ``rand``)."""
    return key[0] in ("rand", "reg")


def solve(targets, blockers=(), *, budget: int = 20_000,
          domains: dict | None = None,
          stats: SolverStats | None = None) -> Sat | Unsat | Unknown:
    """Search for an assignment under which every *target* evaluates to
    1 and no *blocker* does: one question on a fresh
    :class:`~repro.formal.cdcl.Solver` (a verification run keeps one
    solver and asks it every question instead).

    Returns :class:`Sat` with a partial witness (every target settles
    to 1 and every blocker off 1 under :func:`eval_expr`), :class:`Unsat`
    (no assignment drawing each variable from its domain —
    ``domains[key]``, default ``(1, 0)`` — does it), or
    :class:`Unknown` when more than *budget* conflicts were needed.
    For the monotone node fragment, UNSAT over {0, 1} extends to every
    runtime behaviour (see the module docstring).  *blockers* make
    k-induction expressible: "no bad state in frames 0..k-1 (blockers),
    bad in frame k (target)".  The variables are read off the
    expressions.
    """
    return _cdcl.Solver(domains).solve(targets, blockers, budget=budget,
                                       stats=stats)


# The search builds on the evaluator, node traversal and outcomes
# defined above.
from . import cdcl as _cdcl  # noqa: E402
from .cdcl import Solver  # noqa: E402,F401
