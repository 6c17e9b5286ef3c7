"""An unchecked, order-sensitive netlist simulator baseline.

This is the strawman Zeus argues against (sections 1, 4.7): a simulator
in the DDL tradition that executes assignments *in textual order* with
last-writer-wins semantics and performs none of the Zeus safety checks:

* multiple drivers silently overwrite each other (where Zeus reports a
  power-ground hazard statically or at runtime);
* statement order changes results (where Zeus guarantees order
  irrelevance via dataflow firing);
* combinational feedback silently converges -- or doesn't -- within a
  bounded number of sweeps (where Zeus rejects the design statically).

It reuses the elaborated Zeus netlist, so experiment E9 can run the same
mutated program on both simulators and compare what each one notices.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.elaborate import Design
from ..core.types import BOOLEAN
from ..core.values import GATE_FUNCTIONS, Logic
from ..core.view import ClassView


@dataclass
class _Step:
    kind: str  # "gate" | "conn" | "const"
    payload: tuple


class UncheckedSimulator:
    """Sweep-based last-writer-wins evaluation of a Zeus netlist.

    ``sweeps`` controls how many in-order passes each cycle performs; a
    value of 1 mimics a strictly sequential RTL interpreter, larger
    values let values ripple through (but never with the guarantees of
    the Zeus firing rules).
    """

    def __init__(self, design: Design, sweeps: int = 1, seed: int = 0):
        import random

        self.design = design
        self.netlist = design.netlist
        self.sweeps = sweeps
        self.rng = random.Random(seed)
        view = ClassView(design)
        self._idx = view.idx
        self.values: list[Logic] = [Logic.UNDEF] * view.n

        # Program: gates and connections interleaved in creation order
        # (approximated by concatenation -- the textual order of a naive
        # interpreter).
        self._steps: list[_Step] = []
        for g in self.netlist.gates:
            self._steps.append(
                _Step("gate", (g.op, [self._idx(i) for i in g.inputs], self._idx(g.output)))
            )
        for c in self.netlist.conns:
            self._steps.append(
                _Step(
                    "conn",
                    (
                        self._idx(c.src),
                        self._idx(c.dst),
                        self._idx(c.cond) if c.cond is not None else None,
                    ),
                )
            )
        for c in self.netlist.const_conns:
            self._steps.append(
                _Step(
                    "const",
                    (
                        c.value,
                        self._idx(c.dst),
                        self._idx(c.cond) if c.cond is not None else None,
                    ),
                )
            )
        self._reg_d = [self._idx(r.d) for r in self.netlist.regs]
        self._reg_q = [self._idx(r.q) for r in self.netlist.regs]
        self._reg_state = [Logic.UNDEF] * len(self.netlist.regs)
        self._pokes: dict[int, Logic] = {}
        self.cycle = 0
        #: Work counter: statement executions.
        self.executions = 0

    # -- mirror of the Simulator poke/peek API -----------------------------

    def poke(self, path: str, value) -> None:
        from ..core.simulator import _coerce_bits

        nets = self._nets_of(path)
        for net, bit in zip(nets, _coerce_bits(value, len(nets), path)):
            self._pokes[self._idx(net)] = bit

    def peek(self, path: str) -> list[Logic]:
        return [self.values[self._idx(n)] for n in self._nets_of(path)]

    def peek_int(self, path: str) -> int | None:
        from ..core.values import num_of

        return num_of([v.to_boolean() for v in self.peek(path)])

    def _nets_of(self, path: str):
        signals = self.netlist.signals
        if path in signals:
            return signals[path]
        qualified = f"{self.design.name}.{path}"
        if qualified in signals:
            return signals[qualified]
        raise KeyError(f"unknown signal path {path!r}")

    # -- evaluation -----------------------------------------------------------

    def step(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            self.evaluate()
            for ri, di in enumerate(self._reg_d):
                v = self.values[di]
                if v is not Logic.NOINFL:
                    self._reg_state[ri] = v
            self.cycle += 1

    def evaluate(self) -> None:
        n = len(self.values)
        self.values = [Logic.UNDEF] * n
        for i, v in self._pokes.items():
            self.values[i] = v
        for ri, qi in enumerate(self._reg_q):
            self.values[qi] = self._reg_state[ri]
        for _ in range(self.sweeps):
            for step in self._steps:
                self.executions += 1
                self._execute(step)
            # Re-force inputs and register outputs (a naive interpreter
            # would not let assignments clobber them either).
            for i, v in self._pokes.items():
                self.values[i] = v
            for ri, qi in enumerate(self._reg_q):
                self.values[qi] = self._reg_state[ri]

    def _execute(self, step: _Step) -> None:
        if step.kind == "gate":
            op, ins, out = step.payload
            if op == "RANDOM":
                self.values[out] = (
                    Logic.ONE if self.rng.random() < 0.5 else Logic.ZERO
                )
                return
            vals = [self.values[i].to_boolean() for i in ins]
            if op == "EQUAL":
                # One defined, differing bit position settles it to ZERO
                # even if other positions are undefined (section 8).
                half = len(vals) // 2
                result = Logic.ONE
                for x, y in zip(vals[:half], vals[half:]):
                    if x.is_defined and y.is_defined:
                        if x is not y:
                            result = Logic.ZERO
                            break
                    else:
                        result = Logic.UNDEF
                self.values[out] = result
                return
            result = GATE_FUNCTIONS[op](vals)
            self.values[out] = Logic.UNDEF if result is None else result
            return
        if step.kind == "conn":
            src, dst, cond = step.payload
            if cond is None or self.values[cond].to_boolean() is Logic.ONE:
                # Last writer wins -- no multi-driver detection.
                self.values[dst] = self.values[src]
            return
        value, dst, cond = step.payload
        if cond is None or self.values[cond].to_boolean() is Logic.ONE:
            self.values[dst] = value
