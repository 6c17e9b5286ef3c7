"""Frame-indexed encoding of the elaborated semantics graph.

:class:`Encoder` turns the REG-cut semantics graph (as exposed by
:class:`repro.core.view.ClassView`) into solver expressions: one
expression per (net class, frame).  A *frame* is one clock cycle of the
unrolled transition relation:

* frame-0 register outputs are ``UNDEF`` ("reading an unwritten
  register"), matching the simulator's initial state — or free
  variables over {1, 0, "U"} for the inductive step of k-induction;
* a register output at frame ``t > 0`` is a ``latch`` node over its
  data cone at frame ``t - 1`` (NOINFL keeps the old value);
* primary inputs, RANDOM sources become per-frame variables;
* multi-driver nets become ``bus`` nodes that resolve multiplex
  contributions exactly like the runtime.

Every construction goes through one shared :class:`ExprFactory`, so two
encoders (the equivalence miter) share structure and, via the
``input_key`` hook, share the very same primary-input variables.

The encoder refuses (with :class:`EncodeError`) anything whose cycle
semantics are order-dependent or unsupported — combinational cycles,
nets with multiple producers (gate + driver, two gates, two REGs), and
INOUT-style pins that are both primary input and internally driven.
Callers degrade such designs to an UNKNOWN verdict; the simulator stays
the oracle.
"""

from __future__ import annotations

from ..core.values import Logic
from .solver import ExprFactory

#: Constant-driver value in the solver domain.  Unlike the lint cone
#: builder (which models the value *through* the implicit amplifier),
#: a bus member keeps NOINFL as the floating "Z" — resolution needs it.
_CONST_VAL = {Logic.ZERO: 0, Logic.ONE: 1, Logic.UNDEF: "U",
              Logic.NOINFL: "Z"}


class EncodeError(Exception):
    """The design has no order-independent frame encoding."""


class Encoder:
    """Builds per-frame expressions for net classes of one design.

    ``ctx`` is duck-typed with the :class:`~repro.core.view.ClassView`
    surface.  The ``input_key`` / ``rand_key`` / ``reg_key`` hooks let
    the equivalence checker rename variables so both sides of a miter
    draw the same primary inputs.
    """

    def __init__(self, ctx, factory: ExprFactory | None = None, *,
                 init: str = "undef", max_nodes: int = 200_000,
                 input_key=None, rand_key=None, reg_key=None):
        if ctx.topo_order is None:
            path = " -> ".join(ctx.display[c] for c in ctx.cycle)
            raise EncodeError(f"combinational cycle: {path}")
        assert init in ("undef", "free")
        self.ctx = ctx
        self.f = factory if factory is not None else ExprFactory()
        self.init = init
        self.max_nodes = max_nodes
        self.nodes = 0
        #: var key -> kind: input | reg | random
        self.var_kinds: dict[tuple, str] = {}
        self._memo: dict[tuple[int, int], tuple] = {}
        self._input_key = input_key or (lambda ci, t: ("in", ci, t))
        self._rand_key = rand_key or (lambda gid, t: ("rand", gid, t))
        self._reg_key = reg_key or (lambda ci: ("reg", ci))

    def _var(self, key: tuple, kind: str) -> tuple:
        self.var_kinds.setdefault(key, kind)
        return self.f.var(key)

    # -- per-frame net values ------------------------------------------------

    def net(self, ci: int, t: int) -> tuple:
        """The class value at frame *t* (raw multiplex domain: may be
        "Z"; consumers amplify, exactly like the simulator)."""
        key = (ci, t)
        e = self._memo.get(key)
        if e is None:
            self.nodes += 1
            if self.nodes > self.max_nodes:
                raise EncodeError(
                    f"encoding exceeds {self.max_nodes} net-frames")
            e = self._build(ci, t)
            self._memo[key] = e
        return e

    def _build(self, ci: int, t: int) -> tuple:
        ctx = self.ctx
        f = self.f
        gates = ctx.gates_of.get(ci, [])
        drivers = ctx.drivers_of[ci]
        regs = ctx.reg_q_of.get(ci, [])
        if ctx.is_input[ci]:
            if gates or drivers or regs:
                raise EncodeError(
                    f"{ctx.display[ci]!r} is a primary input with internal "
                    "drivers (INOUT); cycle semantics are poke-dependent")
            return self._var(self._input_key(ci, t), "input")
        if regs:
            if len(regs) > 1 or gates or drivers:
                raise EncodeError(
                    f"{ctx.display[ci]!r} has multiple producers")
            reg = regs[0]
            if t == 0:
                if self.init == "free":
                    return self._var(self._reg_key(ci), "reg")
                # Reading a register that was never written gives UNDEF.
                return f.UNDEF
            return f.latch(self.net(ctx.idx(reg.d), t - 1),
                           self.net(ci, t - 1))
        if gates:
            if len(gates) > 1 or drivers:
                raise EncodeError(
                    f"{ctx.display[ci]!r} has multiple producers")
            gate = gates[0]
            if gate.op == "RANDOM":
                return self._var(self._rand_key(gate.id, t), "random")
            args = tuple(f.amp(self.net(ctx.idx(i), t))
                         for i in gate.inputs)
            return f.gate(gate.op, args)
        if not drivers:
            return f.NOINFL  # a free net floats
        if len(drivers) == 1 and drivers[0].uncond:
            return self._source(drivers[0], t)
        return f.bus(tuple((self._guard(d, t), self._source(d, t))
                           for d in drivers))

    def _guard(self, d, t: int) -> tuple:
        if d.cond is None:
            return self.f.TRUE
        # Guards are boolean reads: NOINFL amplifies to UNDEF, which the
        # bus treats as maybe-driving (poison), like the runtime.
        return self.f.amp(self.net(d.cond, t))

    def _source(self, d, t: int) -> tuple:
        if d.const is not None:
            return self.f.const(_CONST_VAL[d.const])
        return self.net(d.src, t)

    # -- derived expressions -------------------------------------------------

    def peek(self, ci: int, t: int) -> tuple:
        """The class value as ``Simulator.peek`` reports it: boolean
        signals read through the implicit amplifier."""
        e = self.net(ci, t)
        return self.f.amp(e) if self.ctx.is_boolean[ci] else e

    def conflict(self, ci: int, t: int) -> tuple:
        """1 iff the runtime multi-driver check fires on this class at
        frame *t* (>= 2 definite driving contributions)."""
        return self.f.conflict(
            tuple((self._guard(d, t), self._source(d, t))
                  for d in self.ctx.drivers_of[ci]))


# ---------------------------------------------------------------------------
# Interface helpers shared by the BMC and equivalence front ends.
# ---------------------------------------------------------------------------


def input_groups(ctx) -> list[tuple[str, list[int]]]:
    """Pokeable primary-input groups of a design as ``(poke path,
    [class index per bit])``, IN ports first (whole-port pokes, bit
    order = port net order), then any remaining primary-input classes
    (e.g. an implicit RSET) by display name."""
    groups: list[tuple[str, list[int]]] = []
    covered: set[int] = set()
    for p in ctx.netlist.ports:
        if p.mode != "IN":
            continue
        cis = [ctx.idx(n) for n in p.nets]
        groups.append((p.name, cis))
        covered.update(cis)
    for ci in range(ctx.n):
        if not ctx.is_input[ci] or ci in covered:
            continue
        # INOUT-style pins (input AND internally driven, e.g. a
        # multiplex OUT) are not solver variables; poking them would
        # inject a phantom driver the solver never modelled.
        if ctx.drivers_of[ci] or ci in ctx.gates_of or ci in ctx.reg_q_of:
            continue
        groups.append((ctx.display[ci], [ci]))
    return groups


def out_ports(ctx) -> list[tuple[str, list[int]]]:
    """OUT ports as ``(pin name, [class index per bit])``."""
    return [(p.name, [ctx.idx(n) for n in p.nets])
            for p in ctx.netlist.ports if p.mode == "OUT"]
