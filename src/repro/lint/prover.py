"""The compile-time multiplex driver-exclusivity prover.

The paper's strongest guarantee (sections 5, 8) is enforced at runtime:
a net may receive at most one (0, 1, UNDEF) assignment per cycle, or the
transistors burn.  This module proves, per pair of conditional drivers,
whether that can ever happen -- for *all* inputs, before a single cycle
is simulated.

For each net with >= 2 deduplicated drivers, every driver pair is
classified as one of

* ``exclusive``   -- the two enable conditions can never both be 1
  (PROVED-EXCLUSIVE: the runtime check can never fire for this pair);
* ``conflicting`` -- a concrete witness assignment of primary inputs
  makes both enables 1 while both sources drive a (0,1,UNDEF) value
  (PROVED-CONFLICTING: the runtime check *will* fire on that input);
* ``unknown``     -- neither could be established within budget; the
  runtime check stays as the oracle.

The proof engine layers three techniques over the guard cones:

1. **constant folding** through the gate cone (a guard that folds to 0
   or UNDEF can never arm its driver);
2. **mutual-exclusion patterns**: complementary literals (``c`` vs
   ``NOT c`` among the AND-factors of the two guards) and one-hot decode
   (two ``EQUAL(sel, k)`` factors over the same selector with different
   constants -- the shape the elaborator emits for ``x[NUM(a)]``);
3. a **SAT query** on the shared clause-learning core: can both guards
   be 1 at once?  Within a conflict budget it answers UNSAT
   (exclusive) or a witness over the union support.

The cone extraction, four-valued evaluation and search live in the
shared solver core (:mod:`repro.formal.solver`) -- the same engine the
bounded model checker and the equivalence checker run on, and the same
gate table the simulator evaluates, so the three can never disagree on
a single gate.  See that module's docstring for the soundness argument
(Kleene monotonicity: UNSAT over {0,1} assignments really does imply
runtime exclusivity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.values import Logic
from ..core.view import ClassView, DriverInfo
from ..formal.solver import (
    ConeBuilder,
    Unknown,
    Unsat,
    and_factors,
    cosat,
    equal_const_map as _equal_const_map,
    eval_expr,
    literal_of as _literal,
)
from .model import LintConfig

_TRUE = ("const", 1)

__all__ = [
    "ConeBuilder",
    "NetResult",
    "PairVerdict",
    "Prover",
    "ProverResult",
    "and_factors",
    "eval_expr",
]


@dataclass
class PairVerdict:
    """Classification of one driver pair of one net."""

    a: int  # driver indices into the net's driver list
    b: int
    verdict: str  # "exclusive" | "conflicting" | "unknown"
    reason: str
    witness: dict[str, int] | None = None

    def to_dict(self) -> dict:
        d = {"a": self.a, "b": self.b, "verdict": self.verdict,
             "reason": self.reason}
        if self.witness is not None:
            d["witness"] = dict(self.witness)
        return d


@dataclass
class NetResult:
    """Prover outcome for one multi-driver net."""

    ci: int
    net: str
    drivers: int
    verdict: str  # "exclusive" | "conflicting" | "unknown"
    pairs: list[PairVerdict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "net": self.net,
            "drivers": self.drivers,
            "verdict": self.verdict,
            "pairs": [p.to_dict() for p in self.pairs],
        }


@dataclass
class ProverResult:
    nets: list[NetResult] = field(default_factory=list)

    @property
    def proved_exclusive(self) -> int:
        return sum(1 for n in self.nets if n.verdict == "exclusive")

    @property
    def proved_conflicting(self) -> int:
        return sum(1 for n in self.nets if n.verdict == "conflicting")

    @property
    def unknown(self) -> int:
        return sum(1 for n in self.nets if n.verdict == "unknown")

    def to_dict(self) -> dict:
        return {
            "nets_analyzed": len(self.nets),
            "proved_exclusive": self.proved_exclusive,
            "proved_conflicting": self.proved_conflicting,
            "unknown": self.unknown,
            "nets": [n.to_dict() for n in self.nets],
        }


class Prover:
    """Runs the driver-exclusivity proof over one design."""

    def __init__(self, ctx: ClassView, config: LintConfig | None = None):
        self.ctx = ctx
        self.config = config or LintConfig()
        self.builder = ConeBuilder(ctx)
        self._drives_memo: dict[int, bool] = {}
        #: Solver outcomes per guard expression (guard_can_fire) and
        #: per guard pair (classify_pair), keyed by identity (the cone
        #: builder keeps every guard alive): drivers that share an
        #: enable net, like every bit of a memory word, ask once.
        self._fire_memo: dict[int, bool | None] = {}
        self._pair_memo: dict[tuple[int, int], object] = {}

    # -- guard expressions ---------------------------------------------------

    def guard_expr(self, drv: DriverInfo) -> tuple:
        if drv.cond is None:
            return _TRUE
        return self.builder.expr(drv.cond)

    def fold_guard(self, drv: DriverInfo):
        """Constant-fold a driver's guard: 0/1/"U" or None (not const)."""
        return eval_expr(self.guard_expr(drv), {})

    def guard_can_fire(self, drv: DriverInfo) -> bool | None:
        """Can the guard ever evaluate to 1?  False is a proof (by
        Kleene monotonicity it covers UNDEF inputs too, so e.g.
        ``AND(a, NOT a)`` is provably dead); None means the solver was
        out of budget."""
        g = self.guard_expr(drv)
        if id(g) not in self._fire_memo:
            self._fire_memo[id(g)] = self._can_fire(g)
        return self._fire_memo[id(g)]

    def _can_fire(self, g: tuple) -> bool | None:
        folded = eval_expr(g, {})
        if folded is not None:
            return folded == 1
        if len(self.builder.support(g)) > self.config.prover_max_support:
            return None
        match self._cosat(g, _TRUE):
            case Unknown():
                return None
            case Unsat():
                return False
        return True

    # -- definitely-driving sources -----------------------------------------

    def source_drives(self, drv: DriverInfo) -> bool:
        """True when the driver's source provably contributes a
        (0,1,UNDEF) value whenever the guard is 1 (a NOINFL source never
        trips the runtime check, so it cannot be a proved conflict)."""
        if drv.const is not None:
            return drv.const is not Logic.NOINFL
        return self._net_drives(drv.src, set())

    def _net_drives(self, ci: int, visiting: set[int]) -> bool:
        memo = self._drives_memo
        if ci in memo:
            return memo[ci]
        if ci in visiting:
            return False
        visiting.add(ci)
        ctx = self.ctx
        out = False
        if ctx.is_input[ci] or ci in ctx.reg_q_of or ci in ctx.gates_of:
            # Inputs fire UNDEF when unpoked, registers fire their state,
            # gates fire 0/1/UNDEF: all are driving values.
            out = True
        else:
            for d in ctx.drivers_of[ci]:
                if not d.uncond:
                    continue
                if d.const is not None:
                    if d.const is not Logic.NOINFL:
                        out = True
                        break
                elif self._net_drives(d.src, visiting):
                    out = True
                    break
        visiting.discard(ci)
        memo[ci] = out
        return out

    # -- pair classification -------------------------------------------------

    def classify_pair(self, da: DriverInfo, db: DriverInfo) -> PairVerdict:
        ga, gb = self.guard_expr(da), self.guard_expr(db)

        # 1. constant folding.
        fa, fb = eval_expr(ga, {}), eval_expr(gb, {})
        for f in (fa, fb):
            if f == 0:
                return PairVerdict(da.index, db.index, "exclusive",
                                   "a guard is constant 0 (dead driver)")
            if f == "U":
                return PairVerdict(
                    da.index, db.index, "exclusive",
                    "a guard is constant UNDEF (may-drive only poisons; "
                    "the runtime multi-driver check never counts it)")

        # 2a. complementary literals across the AND-factors.
        factors_a, factors_b = and_factors(ga), and_factors(gb)
        lits_a = {lit for f in factors_a if (lit := _literal(f))}
        lits_b = {lit for f in factors_b if (lit := _literal(f))}
        for key, pol in lits_a:
            if (key, not pol) in lits_b:
                name = self._var_name(key)
                return PairVerdict(
                    da.index, db.index, "exclusive",
                    f"complementary literals on {name!r}")
        # ... and structural complements of whole factors (c vs NOT c).
        set_a = set(factors_a)
        for f in factors_b:
            complementary = (
                (f[0] == "gate" and f[1] == "NOT" and f[2][0] in set_a)
                or ("gate", "NOT", (f,)) in set_a
            )
            if complementary:
                return PairVerdict(da.index, db.index, "exclusive",
                                   "complementary guard factors")

        # 2b. one-hot decode: EQUAL over the same selector, different
        # constants (the x[NUM(sel)] shape).
        eq_maps_a = [m for f in factors_a if (m := _equal_const_map(f))]
        eq_maps_b = [m for f in factors_b if (m := _equal_const_map(f))]
        for ma in eq_maps_a:
            for mb in eq_maps_b:
                for expr_key, ca in ma.items():
                    cb = mb.get(expr_key)
                    if cb is not None and cb != ca:
                        return PairVerdict(
                            da.index, db.index, "exclusive",
                            "one-hot decode: EQUAL on the same selector "
                            "with different constants")

        # 3. SAT query over the union support.
        support = sorted(set(self.builder.support(ga))
                         | set(self.builder.support(gb)))
        if len(support) > self.config.prover_max_support:
            return PairVerdict(
                da.index, db.index, "unknown",
                f"guard support has {len(support)} variables "
                f"(> {self.config.prover_max_support}); runtime check "
                "remains the oracle")
        key = (id(ga), id(gb))
        if key not in self._pair_memo:
            self._pair_memo[key] = self._cosat(ga, gb)
        outcome = self._pair_memo[key]
        match outcome:
            case Unknown():
                return PairVerdict(
                    da.index, db.index, "unknown",
                    f"solver budget of {self.config.prover_budget} "
                    "conflicts exhausted; runtime check remains the oracle")
            case Unsat():
                return PairVerdict(
                    da.index, db.index, "exclusive",
                    f"SAT search over {len(support)} variable(s) found no "
                    "co-enabling assignment")
        witness = outcome.witness
        named = {self._var_name(k): v for k, v in witness.items()}
        uncontrolled = [self._var_name(k) for k, v in witness.items()
                        if self.builder.var_kinds.get(k) != "input"]
        if uncontrolled:
            return PairVerdict(
                da.index, db.index, "unknown",
                "guards are co-satisfiable but the witness needs "
                f"non-input state ({', '.join(sorted(uncontrolled))}); "
                "runtime check remains the oracle", named)
        if not (self.source_drives(da) and self.source_drives(db)):
            return PairVerdict(
                da.index, db.index, "unknown",
                "guards can both be 1 but a source may float (NOINFL); "
                "runtime check remains the oracle", named)
        return PairVerdict(
            da.index, db.index, "conflicting",
            "both drivers enabled under the witness assignment", named)

    def _cosat(self, ga: tuple, gb: tuple):
        """Search for an assignment with ga = gb = 1 on the shared
        solver core: Sat, Unsat or Unknown."""
        return cosat(ga, gb, budget=self.config.prover_budget)

    def _var_name(self, key: tuple) -> str:
        if key[0] == "net":
            return self.ctx.display[key[1]]
        return f"$random{key[1]}"

    # -- whole-net / whole-design -------------------------------------------

    def classify_net(self, ci: int) -> NetResult:
        drivers = self.ctx.drivers_of[ci]
        pairs: list[PairVerdict] = []
        budget_pairs = self.config.prover_max_pairs
        examined = 0
        for i in range(len(drivers)):
            for j in range(i + 1, len(drivers)):
                if examined >= budget_pairs:
                    pairs.append(PairVerdict(
                        i, j, "unknown",
                        f"pair budget of {budget_pairs} exhausted"))
                    continue
                examined += 1
                pairs.append(self.classify_pair(drivers[i], drivers[j]))
        if any(p.verdict == "conflicting" for p in pairs):
            verdict = "conflicting"
        elif any(p.verdict == "unknown" for p in pairs):
            verdict = "unknown"
        else:
            verdict = "exclusive"
        return NetResult(ci, self.ctx.display[ci], len(drivers),
                         verdict, pairs)

    def run(self) -> ProverResult:
        result = ProverResult()
        for ci in self.ctx.multi_driver_classes():
            result.nets.append(self.classify_net(ci))
        return result
