"""The causal "why" explainer.

``explain(sim, path, cycle)`` answers *why is this net UNDEF /
violating / 1 at cycle C* by walking the flight-recorder records
backward through the netlist fan-in, keeping only the inputs that were
*responsible* for each value under the section-8 firing rules:

* an AND that settled to 0 is explained by its 0 inputs alone (the
  short-circuit firing rule: the other inputs never mattered);
* an OR that settled to 1 is explained by its 1 inputs;
* an EQUAL that settled to 0 is explained by the first defined,
  differing operand pair;
* a conditional driver whose guard was 0 contributed nothing — it shows
  up only when the question is "why does nothing drive this net";
* a driver whose guard was UNDEF *may* drive, which poisons the
  destination — the guard, not the source, is the cause;
* a multiplex conflict names every driver that actually drove, each
  with its guard and source;
* a REG output is explained by the ``in`` value at the most recent
  cycle that latched (scanning recorded cycles backward), or by the
  initial-UNDEF rule when no latch is in the window.

The result is the minimal causal cone, memoized on ``(net class,
cycle)`` so reconvergent fan-in is expanded once (later references are
marked ``shared``), bounded by ``max_nodes``.  Render it as a text
tree, DOT, or embed it in a ``zeus.trace/1`` report
(:mod:`repro.obs.export`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.values import Logic
from ..core.view import DriverInfo
from ..lang.errors import SimulationError

if TYPE_CHECKING:
    from ..core.simulator import Simulator

#: Walk budget: expansion stops (nodes marked ``truncated``) once this
#: many distinct (class, cycle) nodes exist.
DEFAULT_MAX_NODES = 500


@dataclass
class CauseNode:
    """One node of the causal cone: *net* held *value* at *cycle*
    because of *reason*, which in turn happened because of *children*."""

    net: str
    cycle: int
    value: str
    reason: str
    children: list["CauseNode"] = field(default_factory=list)
    #: True when this (net, cycle) was already expanded elsewhere in the
    #: cone (reconvergent fan-in); children live at the first reference.
    shared: bool = False
    #: True when the max_nodes budget stopped expansion below here.
    truncated: bool = False

    def to_dict(self) -> dict:
        d = {
            "net": self.net,
            "cycle": self.cycle,
            "value": self.value,
            "reason": self.reason,
        }
        if self.shared:
            d["shared"] = True
        if self.truncated:
            d["truncated"] = True
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d


@dataclass
class Explanation:
    """The causal cone for one ``(path, cycle)`` question."""

    path: str
    cycle: int
    #: the observed value, with boolean peek amplification (what
    #: ``sim.peek(path)`` would have shown at that cycle).
    value: str
    engine: str
    roots: list[CauseNode]
    node_count: int
    truncated: bool

    # -- text tree -----------------------------------------------------

    def render_text(self) -> str:
        lines = [
            f"why is {self.path} = {self.value} at cycle {self.cycle}?  "
            f"({self.engine} engine, {self.node_count} node(s)"
            + (", truncated)" if self.truncated else ")")
        ]
        for ri, root in enumerate(self.roots):
            last_root = ri == len(self.roots) - 1
            self._render_node(root, "", last_root, lines)
        return "\n".join(lines)

    def _render_node(
        self, node: CauseNode, prefix: str, last: bool, lines: list[str]
    ) -> None:
        branch = "`-- " if last else "|-- "
        tags = ""
        if node.shared:
            tags = "  [see above]"
        elif node.truncated:
            tags = "  [...]"
        lines.append(
            f"{prefix}{branch}{node.net} @ {node.cycle} = {node.value}"
            f"  <- {node.reason}{tags}"
        )
        child_prefix = prefix + ("    " if last else "|   ")
        for i, child in enumerate(node.children):
            self._render_node(
                child, child_prefix, i == len(node.children) - 1, lines
            )

    # -- DOT -----------------------------------------------------------

    def render_dot(self) -> str:
        """Graphviz digraph; reconvergent fan-in merges into one node,
        edges point from cause to effect."""
        nodes: dict[tuple[str, int], tuple[str, str]] = {}
        edges: set[tuple[tuple[str, int], tuple[str, int]]] = set()

        def visit(n: CauseNode) -> None:
            key = (n.net, n.cycle)
            if key not in nodes or not n.shared:
                nodes.setdefault(key, (n.value, n.reason))
            for c in n.children:
                edges.add(((c.net, c.cycle), key))
                visit(c)

        for r in self.roots:
            visit(r)
        ids = {key: f"n{i}" for i, key in enumerate(sorted(nodes))}
        out = [
            "digraph causal_cone {",
            "  rankdir=BT;",
            '  node [shape=box, fontname="monospace"];',
            f'  label="{_dot_escape(self.path)} @ cycle {self.cycle}";',
        ]
        for key, (value, reason) in sorted(nodes.items()):
            net, cyc = key
            label = _dot_escape(f"{net} @ {cyc} = {value}\n{reason}")
            out.append(f'  {ids[key]} [label="{label}"];')
        for src, dst in sorted(edges):
            out.append(f"  {ids[src]} -> {ids[dst]};")
        out.append("}")
        return "\n".join(out)

    def to_dict(self) -> dict:
        return {
            "target": {
                "path": self.path,
                "cycle": self.cycle,
                "value": self.value,
            },
            "engine": self.engine,
            "node_count": self.node_count,
            "truncated": self.truncated,
            "tree": [r.to_dict() for r in self.roots],
        }


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def explain(
    sim: "Simulator",
    path: str,
    cycle: int,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Explanation:
    """Build the causal cone for *path* at *cycle* from *sim*'s flight
    recorder.  Raises :class:`SimulationError` when the simulator has no
    flight recorder, and KeyError when the path is unknown or the cycle
    is outside the recorded window."""
    if sim.flight is None:
        raise SimulationError(
            "causal explanation needs a flight recorder: construct the "
            "simulator with flight=N (or zeusc sim --flight N)"
        )
    return _Explainer(sim, max_nodes).run(path, cycle)


class _Explainer:
    def __init__(self, sim: "Simulator", max_nodes: int):
        self.sim = sim
        self.flight = sim.flight
        self.max_nodes = max_nodes
        self.memo: dict[tuple[int, int], CauseNode] = {}
        self.count = 0
        self.truncated = False

    def run(self, path: str, cycle: int) -> Explanation:
        sim = self.sim
        nets = sim.nets_of(path)  # KeyError on unknown path
        self.flight.snapshot(cycle)  # KeyError outside the window
        shown = self.flight.peek(path, cycle)
        value = (
            str(shown[0])
            if len(shown) == 1
            else "[" + ", ".join(str(v) for v in shown) + "]"
        )
        roots = []
        for k, net in enumerate(nets):
            node = self.visit(sim._idx(net), cycle)
            if len(nets) > 1:
                node.reason = f"bit [{k + 1}]: {node.reason}"
            roots.append(node)
        return Explanation(
            path,
            cycle,
            value,
            sim.engine,
            roots,
            self.count,
            self.truncated,
        )

    # -- the walk ------------------------------------------------------

    def _value(self, i: int, cycle: int) -> Logic | None:
        return self.flight.snapshot(cycle).values[i]

    def visit(self, i: int, cycle: int) -> CauseNode:
        """The cause node for class *i* at *cycle* (memoized; a repeat
        reference returns a childless ``shared`` stub)."""
        key = (i, cycle)
        prior = self.memo.get(key)
        if prior is not None:
            return CauseNode(
                prior.net, prior.cycle, prior.value, prior.reason, shared=True
            )
        sim = self.sim
        raw = self._value(i, cycle)
        value = str(raw) if raw is not None else "(never fired)"
        node = CauseNode(sim.view.display[i], cycle, value, "")
        self.memo[key] = node
        self.count += 1
        if self.count >= self.max_nodes:
            node.reason = "walk budget exhausted"
            node.truncated = True
            self.truncated = True
            return node
        self._expand(node, i, cycle, raw)
        return node

    def _expand(
        self, node: CauseNode, i: int, cycle: int, raw: Logic | None
    ) -> None:
        sim = self.sim
        producers = self.flight.producers()[i]
        if not producers:
            node.reason = "no producer (undriven)"
            return
        reasons = []
        for kind, detail in producers:
            if kind == "input":
                reasons.append(self._explain_input(node, i, cycle))
            elif kind == "free":
                reasons.append(
                    "free net: no driver, fires its NOINFL default"
                )
            elif kind == "gate":
                reasons.append(self._explain_gate(node, detail, cycle, raw))
            elif kind == "register":
                reasons.append(self._explain_register(node, detail, cycle))
            elif kind == "drivers":
                reasons.append(
                    self._explain_drivers(node, i, detail, cycle, raw)
                )
        node.reason = "; ".join(r for r in reasons if r)

    def _explain_input(self, node: CauseNode, i: int, cycle: int) -> str:
        rec = self.flight.snapshot(cycle)
        if i in rec.pokes:
            return f"primary input, poked to {rec.pokes[i]}"
        return "primary input, not poked this cycle (UNDEF default)"

    def _explain_gate(
        self, node: CauseNode, gi: int, cycle: int, raw: Logic | None
    ) -> str:
        sim = self.sim
        op = sim._gates[gi].op
        ins = sim._gate_in[gi]
        if op == "RANDOM":
            return "RANDOM source (seed-driven, no data inputs)"
        vals = [self._value(j, cycle) for j in ins]
        bvals = [v.to_boolean() if v is not None else None for v in vals]
        picked, why = _responsible_inputs(op, bvals, raw)
        for j in picked:
            node.children.append(self.visit(ins[j], cycle))
        return f"{op} gate: {why}"

    def _explain_register(self, node: CauseNode, ri: int, cycle: int) -> str:
        sim = self.sim
        fl = self.flight
        reg = sim.netlist.regs[ri]
        name = reg.name or f"$reg{reg.id}"
        di = sim._reg_d[ri]
        first = fl.first_cycle
        latch_cycle = None
        for c in range(cycle - 1, first - 1, -1):
            d = fl.snapshot(c).values[di]
            if d is not None and d is not Logic.NOINFL:
                latch_cycle = c
                break
        if latch_cycle is None:
            if first > 0 or fl.dropped:
                return (
                    f"REG {name}: no latch in the recorded window "
                    f"(cycles {first}..{cycle}; earlier history dropped)"
                )
            return (
                f"REG {name}: never latched a driving value "
                "(initial contents are UNDEF)"
            )
        node.children.append(self.visit(di, latch_cycle))
        return f"REG {name}: holds the value latched at cycle {latch_cycle}"

    def _explain_drivers(
        self,
        node: CauseNode,
        i: int,
        drivers: tuple[DriverInfo, ...],
        cycle: int,
        raw: Logic | None,
    ) -> str:
        display = self.sim.view.display
        rec = self.flight.snapshot(cycle)
        active: list[DriverInfo] = []  # guard 1 (or unconditional)
        maybe: list[DriverInfo] = []  # guard UNDEF
        off: list[DriverInfo] = []  # guard 0
        for drv in drivers:
            if drv.cond is None:
                active.append(drv)
                continue
            cv = rec.values[drv.cond]
            cb = cv.to_boolean() if cv is not None else None
            if cb is Logic.ZERO:
                off.append(drv)
            elif cb is Logic.ONE:
                active.append(drv)
            else:
                maybe.append(drv)

        def describe(drv: DriverInfo) -> str:
            src = (
                f"constant {drv.const}"
                if drv.const is not None
                else display[drv.src]
            )
            guard = (
                f"guard {display[drv.cond]}"
                if drv.cond is not None
                else "unconditional"
            )
            return f"{src} ({guard})"

        # Conflict: more than one driver actually drove a (0,1,UNDEF)
        # value.  Name every one of them -- this is the multiplex
        # double-drive diagnosis.
        driving = [
            drv
            for drv in active
            if self._driver_value(drv, rec) not in (None, Logic.NOINFL)
        ]
        conflicted = any(v.net == node.net for v in rec.violations)
        if conflicted and len(driving) > 1:
            for drv in driving:
                self._add_driver_children(node, drv, cycle)
            names = ", ".join(describe(drv) for drv in driving)
            return (
                f"MULTIPLEX CONFLICT: {len(driving)} drivers drove "
                f"simultaneously -- {names} -- result forced to UNDEF"
            )
        if maybe:
            # Undefined guards poison the net no matter what the sources
            # hold: the guards are the cause.
            for drv in maybe:
                node.children.append(self.visit(drv.cond, cycle))
            names = ", ".join(describe(drv) for drv in maybe)
            return (
                f"{len(maybe)} driver(s) with an UNDEF guard may drive "
                f"({names}): value poisoned to UNDEF"
            )
        if driving:
            for drv in driving:
                self._add_driver_children(node, drv, cycle)
            names = ", ".join(describe(drv) for drv in driving)
            return f"driven by {names}"
        if active:
            # Guards passed but every source was NOINFL.
            for drv in active:
                self._add_driver_children(node, drv, cycle)
            return (
                f"{len(active)} enabled driver(s) passed NOINFL "
                "(source has no influence)"
            )
        # Nothing drives: explain why each guard was off.
        for drv in off:
            node.children.append(self.visit(drv.cond, cycle))
        return (
            f"all {len(off)} conditional driver(s) off (guards 0): "
            "no influence"
        )

    def _driver_value(self, drv: DriverInfo, rec) -> Logic | None:
        if drv.const is not None:
            return drv.const
        return rec.values[drv.src]

    def _add_driver_children(
        self, node: CauseNode, drv: DriverInfo, cycle: int
    ) -> None:
        if drv.cond is not None:
            node.children.append(self.visit(drv.cond, cycle))
        if drv.src is not None:
            node.children.append(self.visit(drv.src, cycle))
        else:
            node.children.append(
                CauseNode(
                    f"(const {drv.const})",
                    cycle,
                    str(drv.const),
                    "constant drive",
                )
            )


def _responsible_inputs(
    op: str, bvals: list[Logic | None], out: Logic | None
) -> tuple[list[int], str]:
    """Which gate input positions were responsible for *out*, plus a
    one-line reason, under the section-8 short-circuit firing rules."""
    n = len(bvals)
    every = list(range(n))

    def where(pred) -> list[int]:
        return [j for j in range(n) if pred(bvals[j])]

    if op == "NOT":
        return every, "output is the inverted input"
    if out is None:
        return every, "never fired (inputs incomplete)"
    if op in ("AND", "NAND"):
        zero_out = Logic.ZERO if op == "AND" else Logic.ONE
        if out is zero_out:
            picked = where(lambda v: v is Logic.ZERO)
            return picked, f"{len(picked)} input(s) at 0 short-circuit it"
        if out in (Logic.ZERO, Logic.ONE):
            return every, "all inputs are 1"
        picked = where(lambda v: v is not Logic.ONE)
        return picked, (
            f"no 0 input, but {len(picked)} input(s) undefined"
        )
    if op in ("OR", "NOR"):
        one_out = Logic.ONE if op == "OR" else Logic.ZERO
        if out is one_out:
            picked = where(lambda v: v is Logic.ONE)
            return picked, f"{len(picked)} input(s) at 1 short-circuit it"
        if out in (Logic.ZERO, Logic.ONE):
            return every, "all inputs are 0"
        picked = where(lambda v: v is not Logic.ZERO)
        return picked, (
            f"no 1 input, but {len(picked)} input(s) undefined"
        )
    if op == "XOR":
        if out in (Logic.ZERO, Logic.ONE):
            return every, "parity of all inputs"
        picked = where(lambda v: v is not None and not v.is_defined)
        return picked, f"{len(picked)} input(s) undefined"
    if op == "EQUAL":
        half = n // 2
        if out is Logic.ZERO:
            for j in range(half):
                x, y = bvals[j], bvals[half + j]
                if (
                    x is not None
                    and y is not None
                    and x.is_defined
                    and y.is_defined
                    and x is not y
                ):
                    return [j, half + j], (
                        f"operand position {j + 1} differs "
                        f"({x} vs {y}): settles the comparison to 0"
                    )
            return every, "operands differ"
        if out is Logic.ONE:
            return every, "all operand positions equal"
        picked = []
        for j in range(half):
            x, y = bvals[j], bvals[half + j]
            if x is None or y is None or not (x.is_defined and y.is_defined):
                picked.extend([j, half + j])
        return picked, "undefined operand position(s) leave it undecided"
    return every, f"{op} over its inputs"
