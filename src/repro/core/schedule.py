"""The levelized fast-path simulation engine.

The semantics graph of a *checked* design is acyclic once REGs cut the
cycles (paper section 8: "we disallow feedback loops which do not lead
through registers").  On such a graph the dataflow firing machinery of
:mod:`repro.core.simulator` -- a worklist, per-net watch dictionaries and
six scratch arrays reallocated every cycle -- is pure overhead: every net
class fires exactly once per cycle, in any topological order of the
REG-cut graph.

This module compiles the simulator's alias-class view
(:class:`~repro.core.view.ClassView`) into a :class:`Schedule`: a flat,
static evaluation order computed once at
:class:`~repro.core.simulator.Simulator` construction.  A cycle is then
one pass over that schedule -- no queue, no watch lists, no per-cycle
allocation.  The approach is the classic levelized compiled-code
simulation move (Hardcaml's cyclesim makes the same bet).

Equivalence contract
--------------------

:func:`execute` must be observationally identical to one
``Simulator.evaluate()`` dataflow pass: same ``values`` (and hence the
same peeks and register latching), the same violations, and the same
``random.Random`` consumption order for RANDOM gates (the dataflow
engine fires input-less gates in gate-index order at the start of the
pass; the schedule preserves exactly that order).  Anything the schedule
cannot prove it can reproduce -- a combinational cycle, or an alias
class with more than one producer (e.g. a gate output ``==``-merged with
a driven signal), where the dataflow engine's outcome depends on firing
order -- raises :class:`ScheduleError` at build time and the simulator
falls back to the dataflow engine.  ``tests/test_engines.py`` checks the
contract differentially over the stdlib programs and the fuzz corpus.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from .values import GATE_FUNCTIONS, Logic

if TYPE_CHECKING:
    from .simulator import Simulator

# Opcodes of the flat schedule.  Class-producing ops (COPY/CONST/CLASS)
# consult the poke table at runtime -- a poke on a driven class counts as
# one extra driver, exactly as in the dataflow engine.
OPC_COPY = 0    # (OPC_COPY, dst, src): single unconditional connection
OPC_AND = 1     # (OPC_AND, ins, out)
OPC_CLASS = 2   # (OPC_CLASS, dst, ((cond|-1, src|-1, const|None), ...))
OPC_NOT = 3     # (OPC_NOT, in, out)
OPC_EQUAL = 4   # (OPC_EQUAL, ((a_i, b_i), ...), out)
OPC_OR = 5      # (OPC_OR, ins, out)
OPC_CONST = 6   # (OPC_CONST, dst, const): single unconditional constant
OPC_XOR = 7     # (OPC_XOR, ins, out)
OPC_NAND = 8    # (OPC_NAND, ins, out)
OPC_NOR = 9     # (OPC_NOR, ins, out)
OPC_RANDOM = 10  # (OPC_RANDOM, out): source op, consumes the sim rng
OPC_SET = 11    # (OPC_SET, out, value): source op, precomputed constant

_NARY_CODES = {"AND": OPC_AND, "OR": OPC_OR, "NAND": OPC_NAND,
               "NOR": OPC_NOR, "XOR": OPC_XOR}


#: Producer kinds in the order the view's producer table lists them,
#: and how a clash names them.
_CLAIM_ORDER = {"input": 0, "register": 1, "gate": 2, "drivers": 3}
_PRODUCER_LABEL = {"input": "input default", "register": "register output",
                   "gate": "gate output", "drivers": "connection drivers"}


class ScheduleError(Exception):
    """The semantics graph cannot be compiled to a static schedule
    (combinational cycle, or an order-dependent alias class)."""


class Schedule:
    """A static evaluation schedule for one elaborated design.

    Immutable after :func:`build_schedule`; one instance is shared by
    every cycle of the owning simulator.
    """

    __slots__ = (
        "n",
        "none_row",
        "free_nets",
        "input_defaults",
        "reg_pairs",
        "source_ops",
        "ops",
        "n_gates",
        "n_drivers",
        "gate_ids",
    )

    def __init__(self) -> None:
        self.n = 0
        #: template row for resetting the value array (one slot per class).
        self.none_row: list[None] = []
        #: classes that fire NOINFL at cycle start (no driver of any kind).
        self.free_nets: list[int] = []
        #: ``(class, default)`` for driverless primary inputs; a poke
        #: overrides the default at runtime.
        self.input_defaults: list[tuple[int, Logic]] = []
        #: ``(reg_index, q_class)`` pairs fired from register state.
        self.reg_pairs: list[tuple[int, int]] = []
        #: input-less gates in gate-index order (RANDOM rng-order fidelity).
        self.source_ops: list[tuple] = []
        #: the topologically ordered body: one op per gate / driven class.
        self.ops: list[tuple] = []
        self.n_gates = 0
        self.n_drivers = 0
        self.gate_ids: list[int] = []

    def describe(self) -> str:
        return (
            f"levelized schedule: {self.n} classes, "
            f"{len(self.ops)} scheduled ops, {len(self.source_ops)} source "
            f"gates, {len(self.free_nets)} free nets"
        )


def build_schedule(sim: "Simulator") -> Schedule:
    """Compile *sim*'s alias-class view into a :class:`Schedule`.

    Raises :class:`ScheduleError` when the REG-cut graph has a
    combinational cycle or when an alias class has more than one
    producer (the only situations where dataflow firing order matters).
    """
    view = sim.view
    n = view.n
    display = view.display
    drivers_of = view.drivers_of
    gates = sim._gates
    gate_in = sim._gate_in
    gate_out = sim._gate_out

    # -- every class must have exactly one producer --------------------
    # Name the clash a claim pass in table order (inputs, registers,
    # gates, drivers) would hit first: the earliest second producer.
    producers = view.producers()
    clashes = [(_CLAIM_ORDER[prod[1][0]], prod[1][1], ci)
               for ci, prod in enumerate(producers) if len(prod) > 1]
    if clashes:
        ci = min(clashes)[2]
        first, second = (_PRODUCER_LABEL[kind]
                         for kind, _ in producers[ci][:2])
        raise ScheduleError(
            f"net {display[ci]!r} has two producers ({first} and "
            f"{second}); the firing order would decide its value"
        )

    # -- dependency nodes: gates with inputs, and driven classes -------
    node_of: list[int | None] = [None] * n
    nodes: list[tuple[str, int]] = []
    for gi, ins in enumerate(gate_in):
        if ins:
            node_of[gate_out[gi]] = len(nodes)
            nodes.append(("gate", gi))
    for ci in range(n):
        if drivers_of[ci]:
            node_of[ci] = len(nodes)
            nodes.append(("class", ci))

    total = len(nodes)
    indegree = [0] * total
    out_edges: list[list[int]] = [[] for _ in range(total)]

    def add_edge(src_class: int, node: int) -> None:
        p = node_of[src_class]
        if p is not None:
            out_edges[p].append(node)
            indegree[node] += 1

    for node, (kind, idx) in enumerate(nodes):
        if kind == "gate":
            for i in gate_in[idx]:
                add_edge(i, node)
        else:
            for drv in drivers_of[idx]:
                if drv.cond is not None:
                    add_edge(drv.cond, node)
                if drv.src is not None:
                    add_edge(drv.src, node)

    queue = deque(i for i in range(total) if indegree[i] == 0)
    order: list[int] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for nxt in out_edges[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                queue.append(nxt)
    if len(order) != total:
        stuck = next(i for i in range(total) if indegree[i] > 0)
        kind, idx = nodes[stuck]
        name = display[gate_out[idx] if kind == "gate" else idx]
        raise ScheduleError(
            f"combinational cycle through {name!r} (not cut by a register)"
        )

    # -- emit the flat op list -----------------------------------------
    sched = Schedule()
    sched.n = n
    sched.none_row = [None] * n
    sched.free_nets = list(view.free)
    sched.input_defaults = list(view.input_defaults)
    sched.reg_pairs = list(enumerate(sim._reg_q))
    sched.n_gates = len(gates)
    sched.n_drivers = len(view.drivers)
    sched.gate_ids = list(range(len(gates)))

    for gi, ins in enumerate(gate_in):
        if ins:
            continue
        out = gate_out[gi]
        if gates[gi].op == "RANDOM":
            sched.source_ops.append((OPC_RANDOM, out))
        else:
            value = GATE_FUNCTIONS[gates[gi].op]([])
            sched.source_ops.append(
                (OPC_SET, out, Logic.UNDEF if value is None else value)
            )

    ops = sched.ops
    for node in order:
        kind, idx = nodes[node]
        if kind == "gate":
            op = gates[idx].op
            ins = tuple(gate_in[idx])
            out = gate_out[idx]
            if op == "NOT":
                ops.append((OPC_NOT, ins[0], out))
            elif op == "EQUAL":
                half = len(ins) // 2
                ops.append((OPC_EQUAL, tuple(zip(ins[:half], ins[half:])), out))
            elif op in _NARY_CODES:
                ops.append((_NARY_CODES[op], ins, out))
            else:
                raise ScheduleError(f"gate op {op!r} has no levelized rule")
        else:
            ci = idx
            ds = drivers_of[ci]
            if len(ds) == 1:
                drv = ds[0]
                if drv.cond is None:
                    if drv.const is None:
                        ops.append((OPC_COPY, ci, drv.src))
                    else:
                        ops.append((OPC_CONST, ci, drv.const))
                    continue
            spec = tuple(
                (
                    drv.cond if drv.cond is not None else -1,
                    drv.src if drv.src is not None else -1,
                    drv.const,
                )
                for drv in ds
            )
            ops.append((OPC_CLASS, ci, spec))
    return sched


def execute(
    sched: Schedule,
    values: list,
    pokes: dict,
    reg_state: list,
    rng_random: Callable[[], float],
    conflict: Callable[[int, Logic, Logic], Logic],
) -> None:
    """One combinational evaluation pass over the static schedule.

    ``values`` is the simulator's per-class value array (reset here);
    ``conflict(dst, prior, value)`` records a multi-drive violation and
    returns the resolved value (UNDEF), raising in strict mode.
    """
    ZERO_ = Logic.ZERO
    ONE_ = Logic.ONE
    UNDEF_ = Logic.UNDEF
    NOINFL_ = Logic.NOINFL

    values[:] = sched.none_row
    get_poke = pokes.get

    # Source firings (cycle start).
    for i in sched.free_nets:
        values[i] = NOINFL_
    for i, default in sched.input_defaults:
        v = get_poke(i)
        values[i] = default if v is None else v
    for ri, qi in sched.reg_pairs:
        values[qi] = reg_state[ri]
    for op in sched.source_ops:
        if op[0] == OPC_RANDOM:
            values[op[1]] = ONE_ if rng_random() < 0.5 else ZERO_
        else:
            values[op[1]] = op[2]

    # The single levelized pass.
    for op in sched.ops:
        code = op[0]
        if code == OPC_COPY:
            dst = op[1]
            pv = get_poke(dst)
            if pv is None:
                values[dst] = values[op[2]]
            else:
                c = values[op[2]]
                if pv is NOINFL_:
                    values[dst] = c
                elif c is NOINFL_:
                    values[dst] = pv
                else:
                    values[dst] = conflict(dst, pv, c)
        elif code == OPC_AND:
            r = ONE_
            for i in op[1]:
                v = values[i]
                if v is ZERO_:
                    r = ZERO_
                    break
                if v is not ONE_:
                    r = UNDEF_
            values[op[2]] = r
        elif code == OPC_CLASS:
            dst = op[1]
            driving = None
            undef_guard = False
            pv = get_poke(dst)
            if pv is not None and pv is not NOINFL_:
                driving = pv
            for cond, src, const in op[2]:
                if cond >= 0:
                    cv = values[cond]
                    if cv is ZERO_:
                        continue  # guard off: NOINFL contribution
                    if cv is not ONE_:
                        undef_guard = True  # guard UNDEF: may drive
                        continue
                c = const if const is not None else values[src]
                if c is NOINFL_:
                    continue
                if driving is None:
                    driving = c
                else:
                    driving = conflict(dst, driving, c)
            if undef_guard:
                values[dst] = UNDEF_
            elif driving is None:
                values[dst] = NOINFL_
            else:
                values[dst] = driving
        elif code == OPC_NOT:
            v = values[op[1]]
            values[op[2]] = (
                ONE_ if v is ZERO_ else (ZERO_ if v is ONE_ else UNDEF_)
            )
        elif code == OPC_EQUAL:
            r = ONE_
            for ai, bi in op[1]:
                x = values[ai]
                y = values[bi]
                if x is ZERO_ or x is ONE_:
                    if y is x:
                        continue
                    if y is ZERO_ or y is ONE_:
                        r = ZERO_  # a defined, differing bit decides
                        break
                    r = UNDEF_
                else:
                    r = UNDEF_
            values[op[2]] = r
        elif code == OPC_OR:
            r = ZERO_
            for i in op[1]:
                v = values[i]
                if v is ONE_:
                    r = ONE_
                    break
                if v is not ZERO_:
                    r = UNDEF_
            values[op[2]] = r
        elif code == OPC_CONST:
            dst = op[1]
            pv = get_poke(dst)
            if pv is None:
                values[dst] = op[2]
            else:
                c = op[2]
                if pv is NOINFL_:
                    values[dst] = c
                elif c is NOINFL_:
                    values[dst] = pv
                else:
                    values[dst] = conflict(dst, pv, c)
        elif code == OPC_XOR:
            ones = 0
            undef = False
            for i in op[1]:
                v = values[i]
                if v is ONE_:
                    ones += 1
                elif v is not ZERO_:
                    undef = True
                    break
            values[op[2]] = (
                UNDEF_ if undef else (ONE_ if ones & 1 else ZERO_)
            )
        elif code == OPC_NAND:
            r = ONE_
            for i in op[1]:
                v = values[i]
                if v is ZERO_:
                    r = ZERO_
                    break
                if v is not ONE_:
                    r = UNDEF_
            values[op[2]] = (
                ZERO_ if r is ONE_ else (ONE_ if r is ZERO_ else UNDEF_)
            )
        elif code == OPC_NOR:
            r = ZERO_
            for i in op[1]:
                v = values[i]
                if v is ONE_:
                    r = ONE_
                    break
                if v is not ZERO_:
                    r = UNDEF_
            values[op[2]] = (
                ZERO_ if r is ONE_ else (ONE_ if r is ZERO_ else UNDEF_)
            )
