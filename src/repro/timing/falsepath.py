"""SAT-backed false-path pruning and witness replay.

A reported worst path is only interesting if a transition can actually
propagate along it.  This module builds, per path, the classic *static
sensitization* conditions — every side input of every gate on the path
must hold its non-controlling value, every multiplex arm on the path
must be the one enabled — as expressions over the shared solver cone
builder (:class:`repro.formal.solver.ConeBuilder`, the exact encoder
the lint driver-exclusivity prover uses), and discharges them through
the shared clause-learning core (one
:class:`~repro.formal.cdcl.Solver` per checker, so each cone is encoded
once):

* **UNSAT** (with every condition *exact*): no primary-input/register
  assignment sensitizes the path — it is proved false and demoted; the
  enumerator pulls the next-worst candidate.
* **SAT**: the witness assignment is replayed through the real
  simulator, :mod:`repro.formal.replay`-style: two one-cycle runs with
  the startpoint poked 0 then 1 under the witness's side-input values
  must flip the endpoint between two *defined* values (both runs reuse
  the checker's one replay simulator, reset in between).  Only a
  confirmed replay reports ``confirmed``; a witness that needs
  uncontrollable variables (register state, RANDOM, opaque cones)
  reports ``witness-unreplayed``.

Soundness contract: conditions are *necessary* for static single-path
sensitization over defined input assignments, and they are only
trusted for pruning when every edge produced an **exact** condition.
Edges with value-dependent timing (guard arcs, unconditional sibling
drivers that may float, opcodes without a sensitization rule) mark the
path inexact: it is reported ``assumed`` and never pruned — erring on
the side of reporting a pessimistic (longer) clock period, never an
optimistic one.
"""

from __future__ import annotations

from ..core.values import Logic
from ..formal.encode import input_groups
from ..formal.replay import Replayer
from ..formal.solver import (
    ConeBuilder,
    ExprFactory,
    Solver,
    SolverStats,
    Unknown,
    Unsat,
)
from .paths import TimingPath

#: Gate ops whose sensitization needs no side condition: NOT (single
#: input) and XOR (any single-input flip always flips the output).
_UNCONDITIONED = ("NOT", "XOR")


class PathChecker:
    """Classifies candidate critical paths for one design."""

    def __init__(self, ctx, *, budget: int = 20_000,
                 max_cone: int = 5_000):
        self.ctx = ctx
        self.budget = budget
        self.f = ExprFactory()
        self.builder = ConeBuilder(ctx, max_nodes=max_cone)
        self.stats = SolverStats()
        self.solver = Solver()
        self.replayer = Replayer()
        self._may_float_memo: dict[int, bool] = {}
        #: input class -> (poke path, bit index, port width)
        self._input_map: dict[int, tuple[str, int, int]] = {}
        for path, cis in input_groups(ctx):
            for bit, ci in enumerate(cis):
                self._input_map.setdefault(ci, (path, bit, len(cis)))

    # -- floating analysis ---------------------------------------------------

    def may_float(self, ci: int) -> bool:
        """Can this class ever resolve to NOINFL (no driver wins)?
        Conservative: cycles and anything unproven answer True."""
        memo = self._may_float_memo
        if ci in memo:
            return memo[ci]
        memo[ci] = True  # cycle guard: assume floating until proven
        ctx = self.ctx
        if ctx.is_input[ci] or ci in ctx.reg_q_of or ci in ctx.gates_of:
            memo[ci] = False
            return False
        drvs = ctx.drivers_of[ci]
        if not drvs or any(d.cond is not None for d in drvs):
            return True  # undriven, or all guards may be 0
        for d in drvs:
            if d.const is not None:
                if d.const is not Logic.NOINFL:
                    memo[ci] = False
                    return False
            elif not self.may_float(d.src):
                memo[ci] = False
                return False
        return True

    # -- sensitization conditions --------------------------------------------

    def conditions(self, path: TimingPath) -> tuple[list, bool, str]:
        """(conditions, exact, detail): solver expressions that must all
        be 1 for the path to be statically sensitized.  ``exact`` False
        means some edge has value-dependent timing the conditions do
        not capture — the path must not be pruned."""
        conds: list = []
        exact = True
        detail = ""
        for edge in path.edges:
            if edge.kind == "gate":
                ok = self._gate_conditions(edge, conds)
                if not ok:
                    exact, detail = False, (
                        f"no sensitization rule for {edge.gate.op}")
            elif edge.kind == "drive":
                ok, why = self._drive_conditions(edge, conds)
                if not ok:
                    exact, detail = False, why
            else:  # guard arc: value-dependent timing, never pruned
                exact, detail = False, "path times through a guard arc"
        return conds, exact, detail

    def _gate_conditions(self, edge, conds: list) -> bool:
        gate, pos = edge.gate, edge.pos
        op = gate.op
        if op in _UNCONDITIONED:
            return True
        expr = lambda net: self.builder.expr(self.ctx.idx(net))  # noqa: E731
        if op in ("AND", "NAND"):
            conds.extend(expr(inp) for j, inp in enumerate(gate.inputs)
                         if j != pos)
            return True
        if op in ("OR", "NOR"):
            conds.extend(self.f.not_(expr(inp))
                         for j, inp in enumerate(gate.inputs) if j != pos)
            return True
        if op == "EQUAL":
            # EQUAL(a, b): inputs are the two operand buses
            # concatenated; a flip of pair k propagates iff every
            # other pair compares equal.
            half = len(gate.inputs) // 2
            if half * 2 != len(gate.inputs):
                return False
            k = pos % half
            for j in range(half):
                if j == k:
                    continue
                conds.append(self.f.gate("EQUAL", (
                    expr(gate.inputs[j]), expr(gate.inputs[half + j]))))
            return True
        return False  # RANDOM or future ops: no rule, stay inexact

    def _drive_conditions(self, edge, conds: list) -> tuple[bool, str]:
        ctx = self.ctx
        drv = edge.driver
        if ctx.gates_of.get(edge.dst):
            # Gate output + explicit driver on one net: the runtime
            # value is producer-order dependent; do not prune.
            return False, (
                f"{ctx.display[edge.dst]!r} mixes a gate and drivers")
        if drv.cond is not None:
            conds.append(self.builder.expr(drv.cond))
        for other in ctx.drivers_of[edge.dst]:
            if other is drv:
                continue
            if other.cond is not None:
                # The competing arm must be off (a 1 guard would
                # poison the net to UNDEF, a U guard likewise; over
                # defined assignments "off" is exactly guard = 0).
                conds.append(self.f.not_(self.builder.expr(other.cond)))
            elif other.const is Logic.NOINFL:
                continue  # contributes nothing, ever
            elif other.const is not None or not self.may_float(other.src):
                # A second definite driver: the net is UNDEF no matter
                # what our arm does — no transition propagates.
                conds.append(self.f.FALSE)
            else:
                return False, (
                    f"sibling driver of {ctx.display[edge.dst]!r} may "
                    "float; exclusivity is value-dependent")
        return True, ""

    # -- classification ------------------------------------------------------

    def classify(self, circuit, path: TimingPath) -> TimingPath:
        """Fill ``path.sensitization``/``reason``/``witness``/replay in
        place and return it.  Verdicts: ``proved-false`` (prunable),
        ``confirmed`` (SAT + simulator replay), ``witness-unreplayed``
        (SAT, witness needs uncontrollable state), ``assumed``
        (inexact conditions or solver budget)."""
        conds, exact, detail = self.conditions(path)
        if not exact:
            path.sensitization = "assumed"
            path.reason = detail
            return path
        if any(c == self.f.FALSE for c in conds):
            path.sensitization = "proved-false"
            path.reason = "a definite sibling driver poisons the path"
            return path
        outcome = self.solver.solve(conds, budget=self.budget,
                                    stats=self.stats)
        match outcome:
            case Unknown():
                path.sensitization = "assumed"
                path.reason = (f"solver budget ({self.budget} conflicts) "
                               "exhausted")
                return path
            case Unsat():
                path.sensitization = "proved-false"
                path.reason = ("side-input conditions are UNSAT: no input/"
                               "register assignment sensitizes the path")
                return path
        witness = outcome.witness
        path.witness = dict(witness)
        confirmed, why = self._replay(circuit, path, witness)
        if confirmed:
            path.sensitization = "confirmed"
            path.replay_confirmed = True
        else:
            path.sensitization = "witness-unreplayed"
            path.replay_confirmed = False
        path.reason = why
        path.replay_detail = why
        return path

    # -- witness replay ------------------------------------------------------

    def _replay(self, circuit, path: TimingPath,
                witness: dict) -> tuple[bool, str]:
        ctx = self.ctx
        start_info = self._input_map.get(path.start)
        if start_info is None:
            kind = ("register output"
                    if path.start in ctx.reg_q_of else "internal net")
            return False, (f"startpoint {ctx.display[path.start]!r} is a "
                           f"{kind}, not a pokeable primary input")
        for key, _val in witness.items():
            kind = self.builder.var_kinds.get(key, "opaque")
            if kind != "input":
                return False, (f"witness constrains a {kind} variable "
                               f"({self._var_name(key)})")
            ci = key[1]
            if ci != path.start and ci not in self._input_map:
                return False, (f"witness input {ctx.display[ci]!r} has no "
                               "poke path")
        values = {}  # endpoint value per startpoint polarity
        end_net = ctx.members[path.end][0]
        for bit in (0, 1):
            sim = self.replayer.fresh(circuit)
            frame: dict[str, list[int]] = {}
            for ci, (pp, pos, width) in self._input_map.items():
                frame.setdefault(pp, [0] * width)
            for key, val in witness.items():
                ci = key[1]
                if ci == path.start:
                    continue  # the toggled bit overrides any constraint
                pp, pos, _w = self._input_map[ci]
                frame[pp][pos] = val if val in (0, 1) else 0
            pp, pos, _w = self._input_map[path.start]
            frame[pp][pos] = bit
            for sig, bits in frame.items():
                sim.poke(sig, [Logic.from_bit(b) for b in bits])
            sim.step()
            v = sim.current_values()[sim.view.idx(end_net)]
            if v is Logic.NOINFL or v is None:
                v = Logic.UNDEF
            values[bit] = v
        v0, v1 = values[0], values[1]
        if v0.is_defined and v1.is_defined and v0 is not v1:
            return True, (f"replay: {ctx.display[path.end]!r} flips "
                          f"{v0} -> {v1} when "
                          f"{ctx.display[path.start]!r} flips 0 -> 1")
        return False, (f"replay: {ctx.display[path.end]!r} reads "
                       f"{v0} / {v1}; the transition did not propagate")

    def _var_name(self, key) -> str:
        if key[0] == "net":
            return self.ctx.display[key[1]]
        return f"$rand{key[1]}"

    def witness_names(self, witness: dict) -> dict[str, int]:
        """A witness keyed by display names, for reports."""
        return {self._var_name(k): v for k, v in sorted(
            witness.items(), key=lambda kv: str(kv[0]))}
