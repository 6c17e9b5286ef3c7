"""Bounded model checking with k-induction over the unrolled design.

:func:`prove` checks safety properties of one circuit:

``"no-conflict"``
    The runtime multiplex multi-driver check never fires (the lint
    prover's question, asked of the *whole reachable state space*
    instead of per driver pair).  Refutations are complete against
    undefined inputs too (the conflict encoding is Kleene-monotone).
``"out-defined:<pin>"``
    The named OUT pin never reads UNDEF (or floating).  Proofs
    quantify over *fully-defined* primary inputs — an undefined input
    trivially undefines most outputs, so the interesting question is
    whether defined stimuli can.
``"assert:<path>"``
    The signal at *path* (any probe path the simulator accepts) is 1
    every cycle, under the same defined-inputs contract — the small
    user-assertion surface of the prove API.

Verdicts per property: ``proved`` (combinational exhaustion or
k-induction), ``counterexample`` (with a replayed primary-input
stimulus trace), or ``unknown`` (bounded-clean to the configured depth,
out of budget, or the design defeats the encoder).

The BMC loop asks one SAT question per frame ("bad at cycle t?") so a
shallow counterexample never pays for a deep unrolling; frames share
structure through the interning factory, which is what keeps k-cycle
unrollings of register designs tractable.  One :class:`Solver` answers
every BMC question of a :func:`prove` call, so each node of the
unrolling is encoded once; each property's k-induction loop keeps a
private one.  Counterexamples replay through one simulator per call.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.view import ClassView
from .encode import EncodeError, Encoder, input_groups, out_ports
from .replay import Replayer, replay_property
from .report import Counterexample, ProofReport, PropertyResult
from .solver import (
    ExprFactory,
    Sat,
    Solver,
    SolverStats,
    Unknown,
    eval_expr,
)

#: Register-state variables in the inductive step range over the full
#: boolean-read domain (a register can hold UNDEF).
_STATE_DOMAIN = (1, 0, "U")


@dataclass
class FormalConfig:
    """Knobs shared by ``zeusc prove`` and ``zeusc equiv``."""

    depth: int = 8          # BMC unrolling bound (frames 0..depth)
    budget: int = 100_000   # solver conflict budget per SAT question
    induction: bool = True  # attempt k-induction after a clean BMC
    max_nodes: int = 200_000  # encoder net-frame budget

    def to_dict(self) -> dict:
        return {"depth": self.depth, "budget": self.budget,
                "induction": self.induction}


def default_properties(circuit) -> list[str]:
    """The standing obligations: no multi-driver conflict, every OUT
    pin defined."""
    props = ["no-conflict"]
    props += [f"out-defined:{p.name}"
              for p in circuit.netlist.ports if p.mode == "OUT"]
    return props


def _bad_builder(prop: str, enc: Encoder):
    """frame -> list of "the property is violated here" obligations
    (one per multi-driver net / pin bit).  Obligations are solved as
    separate SAT questions so each question's support stays the cone of
    one net, not the union over the whole design."""
    ctx = enc.ctx
    f = enc.f
    kind, _, arg = prop.partition(":")
    if kind == "no-conflict":
        classes = ctx.multi_driver_classes()
        return lambda t: [enc.conflict(ci, t) for ci in classes]
    if kind == "out-defined":
        for name, cis in out_ports(ctx):
            if name == arg:
                return lambda t: [f.isundef(f.amp(enc.net(ci, t)))
                                  for ci in cis]
        raise ValueError(f"no OUT pin {arg!r} for property {prop!r}")
    if kind == "assert":
        nets = _resolve_path(ctx, arg)
        cis = [ctx.idx(n) for n in nets]
        return lambda t: [f.differs(f.amp(enc.net(ci, t)), f.TRUE)
                          for ci in cis]
    raise ValueError(
        f"unknown property {prop!r} (want no-conflict, "
        "out-defined:<pin>, or assert:<path>)")


def _resolve_path(ctx, path: str) -> list:
    signals = ctx.netlist.signals
    for candidate in (path, f"{ctx.netlist.name}.{path}"):
        if candidate in signals:
            return signals[candidate]
    try:
        return ctx.netlist.port(path).nets
    except KeyError:
        raise ValueError(f"unknown signal path {path!r}") from None


def _witness_trace(ctx, witness: dict, depth: int,
                   groups=None) -> list[dict[str, list[int]]]:
    """Expand a (partial) witness into full per-frame input pokes.
    Unassigned input bits are poked to 0 — sound, because a target that
    evaluates to 1 under the partial assignment is 1 under every
    completion."""
    if groups is None:
        groups = input_groups(ctx)
    return [
        {path: [witness.get(("in", ci, t), 0) for ci in cis]
         for path, cis in groups}
        for t in range(depth + 1)
    ]


def _uncontrollable(enc: Encoder, witness: dict) -> list[tuple]:
    return [key for key in witness
            if enc.var_kinds.get(key) not in (None, "input")]


def prove(circuit, properties: list[str] | None = None,
          config: FormalConfig | None = None) -> ProofReport:
    """Run BMC (+ k-induction) over *circuit* for each property."""
    from ..obs.spans import span

    cfg = config or FormalConfig()
    props = list(properties) if properties else default_properties(circuit)
    report = ProofReport("prove", [(circuit.name, circuit.stats())],
                         cfg.to_dict())
    with span("formal", design=circuit.name, mode="prove",
              properties=len(props)):
        _prove_into(circuit, props, cfg, report)
    return report


def _prove_into(circuit, props: list[str], cfg: FormalConfig,
                report: ProofReport) -> None:
    stats = report.stats
    ctx = ClassView(circuit.design)
    factory = ExprFactory()
    try:
        enc = Encoder(ctx, factory, init="undef", max_nodes=cfg.max_nodes)
    except EncodeError as exc:
        report.results = [PropertyResult(p, "unknown", reason=str(exc))
                          for p in props]
        return
    sequential = bool(circuit.netlist.regs)
    depth = cfg.depth if sequential else 0
    solver = Solver()
    replayer = Replayer()
    for prop in props:
        report.results.append(
            _check_property(circuit, ctx, enc, factory, prop, depth,
                            sequential, cfg, stats, solver, replayer))
    report.clauses = factory.node_count


def _check_property(circuit, ctx, enc: Encoder, factory: ExprFactory,
                    prop: str, depth: int, sequential: bool,
                    cfg: FormalConfig, stats: SolverStats, solver: Solver,
                    replayer: Replayer) -> PropertyResult:
    bad = _bad_builder(prop, enc)  # bad property names raise ValueError
    clean_to = -1
    for t in range(depth + 1):
        try:
            obligations = [b for b in bad(t) if b is not factory.FALSE]
        except EncodeError as exc:
            return PropertyResult(prop, "unknown", "bmc", clean_to,
                                  reason=str(exc))
        for b in obligations:
            match solver.solve((b,), budget=cfg.budget, stats=stats):
                case Unknown():
                    return PropertyResult(
                        prop, "unknown", "bmc", clean_to,
                        reason=f"solver budget of {cfg.budget} conflicts "
                               f"exhausted at frame {t}")
                case Sat(witness):
                    return _refute(circuit, ctx, enc, prop, t, witness,
                                   clean_to, replayer)
        clean_to = t
    if not sequential:
        return PropertyResult(
            prop, "proved", "combinational", clean_to,
            reason="stateless design: one frame covers every cycle")
    if cfg.induction:
        k = _induction(ctx, factory, prop, depth, cfg, stats)
        if k is not None:
            return PropertyResult(prop, "proved", "k-induction",
                                  clean_to, k=k)
    return PropertyResult(
        prop, "unknown", "bmc", clean_to,
        reason=f"no counterexample up to depth {depth}; "
               "induction inconclusive")


def _refute(circuit, ctx, enc: Encoder, prop: str, t: int, witness: dict,
            clean_to: int, replayer: Replayer) -> PropertyResult:
    uncontrolled = _uncontrollable(enc, witness)
    if uncontrolled:
        return PropertyResult(
            prop, "unknown", "bmc", clean_to,
            reason="satisfiable only through uncontrollable state "
                   f"({len(uncontrolled)} RANDOM/opaque variable(s)); "
                   "no replayable stimulus")
    frames = _witness_trace(ctx, witness, t)
    confirmed, detail = replay_property(replayer.fresh(circuit), prop,
                                        frames)
    cex = Counterexample(t, frames, confirmed, detail)
    if not confirmed:
        return PropertyResult(
            prop, "unknown", "bmc", clean_to,
            reason=f"solver witness did not replay: {detail}",
            counterexample=cex)
    return PropertyResult(prop, "counterexample", "bmc", t,
                          counterexample=cex)


def _induction(ctx, factory: ExprFactory, prop: str, depth: int,
               cfg: FormalConfig, stats: SolverStats) -> int | None:
    """Try to close the proof with k-induction: from *any* register
    state (free over {1, 0, UNDEF}), k clean cycles force a clean
    cycle k+1.  Sound together with the BMC base case (clean to
    ``depth`` >= k from the real initial state).  Returns the proving
    k, or None."""
    try:
        enc = Encoder(ctx, factory, init="free", max_nodes=cfg.max_nodes)
        bad = _bad_builder(prop, enc)
        bads = [[b for b in bad(t) if b is not factory.FALSE]
                for t in range(depth + 1)]
    except (EncodeError, ValueError):
        return None
    return _induction_loop(bads, depth, cfg, stats, _reg_domains([enc]))


def _reg_domains(encoders) -> dict:
    """Register-state variables range over {1, 0, UNDEF}."""
    return {key: _STATE_DOMAIN for enc in encoders
            for key, kind in enc.var_kinds.items() if kind == "reg"}


def _induction_loop(bads, depth: int, cfg: FormalConfig,
                    stats: SolverStats, domains: dict) -> int | None:
    """Shared k-loop: UNSAT for every frame-k obligation, given every
    frame-<k obligation blocked, closes the proof at k.  The loop keeps
    a solver of its own: its blockers only accumulate, so each frame's
    obligations are blocked for good once the loop moves past it."""
    solver = Solver(domains)
    for k in range(1, depth + 1):
        targets = bads[k]
        if not targets:
            return k
        for b in bads[k - 1]:
            solver.add_blocker(b)
        failed = False
        for target in targets:
            match solver.solve((target,), budget=cfg.budget, stats=stats):
                case Unknown():
                    return None
                case Sat():
                    failed = True
                    break
        if not failed:
            return k
    return None


__all__ = [
    "FormalConfig",
    "default_properties",
    "prove",
    "eval_expr",
]
