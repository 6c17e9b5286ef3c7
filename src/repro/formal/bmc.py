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

:func:`run_schedule` is the one BMC/k-induction schedule, shared with
:func:`~repro.formal.equiv.check_equivalence` (Sheeran, Singh and
Stålmarck, FMCAD 2000; Eén and Sörensson, 2003).  The base case asks
one SAT question per obligation and frame ("bad at cycle t?") from the
initial state, so a shallow counterexample never pays for a deep
unrolling.  Once frame t is clean, the step at k = t + 1 asks whether
t + 1 clean frames from *any* register state force a clean frame
t + 1, so a proof that closes at k never unrolls the base case past
frame k - 1.  Frames share structure through the interning factory,
which is what keeps k-cycle unrollings of register designs tractable.
One :class:`Solver` answers every base-case question of a
:func:`prove` call, so each node of the unrolling is encoded once;
each property's step keeps a private one.  Counterexamples replay
through one simulator per call.
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
    induction: bool = True  # step k after each clean base frame k-1
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
    (one per multi-driver net / pin bit), each asked as its own SAT
    question.  One disjunction per frame measured no clear win (2-vCPU
    Xeon, CPython 3.11): it took tinycpu's base case over frames 0..8
    from 16.4 s to 11.1 s but am2901's from 8.8 s to 9.5 s, and it
    would change which witness a refutation reports."""
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
    ctx = ClassView(circuit.design)
    factory = ExprFactory()
    try:
        enc = Encoder(ctx, factory, init="undef", max_nodes=cfg.max_nodes)
    except EncodeError as exc:
        report.results = [PropertyResult(p, "unknown", reason=str(exc))
                          for p in props]
        return
    sequential = bool(circuit.netlist.regs)
    solver = Solver()
    replayer = Replayer()
    for prop in props:
        report.results.append(
            _check_property(circuit, ctx, enc, prop, sequential, cfg,
                            report.stats, solver, replayer))
    report.clauses = factory.node_count


def _check_property(circuit, ctx, enc: Encoder, prop: str,
                    sequential: bool, cfg: FormalConfig, stats: SolverStats,
                    solver: Solver, replayer: Replayer) -> PropertyResult:
    bad = _bad_builder(prop, enc)  # bad property names raise ValueError

    def free():
        step = Encoder(ctx, enc.f, init="free", max_nodes=cfg.max_nodes)
        return _bad_builder(prop, step), (step,)

    def refute(t: int, witness: dict, clean_to: int) -> PropertyResult:
        return _refute(circuit, ctx, enc, prop, t, witness, clean_to,
                       replayer)

    return run_schedule(
        prop, bad, free, sequential, cfg, stats, solver, refute,
        stateless="stateless design: one frame covers every cycle",
        noun="counterexample")


def run_schedule(prop: str, bad, free, sequential: bool, cfg: FormalConfig,
                 stats: SolverStats, solver: Solver, refute, *,
                 stateless: str, noun: str) -> PropertyResult:
    """The interleaved BMC/k-induction schedule of one property.

    Frame t of the base case asks each obligation of *bad(t)* as its
    own question on the run's BMC *solver*; the first witness goes to
    *refute(t, witness, clean_to)*, which replays it.  Once frame t is
    clean, the step at k = t + 1 runs (:class:`_Step`, built by *free*
    when the first step is due); it proves the property with
    ``depth_checked`` t.  A step that answers Unknown or defeats the
    encoder ends induction, and the base case goes on to the depth.
    *stateless* is the reason of a combinational proof; *noun* names
    what a clean base case did not find."""
    depth = cfg.depth if sequential else 0
    step = _Step(free, cfg, stats) if sequential and cfg.induction else None
    clean_to = -1
    for t in range(depth + 1):
        try:
            obligations = _obligations(bad, t)
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
                    return refute(t, witness, clean_to)
        clean_to = t
        if step is not None and t < depth:
            closed = step.closes(t + 1)
            if closed:
                return PropertyResult(prop, "proved", "k-induction", t,
                                      k=t + 1)
            if closed is None:
                step = None
    if not sequential:
        return PropertyResult(prop, "proved", "combinational", clean_to,
                              reason=stateless)
    return PropertyResult(
        prop, "unknown", "bmc", clean_to,
        reason=f"no {noun} up to depth {depth}; induction inconclusive")


def _obligations(bad, t: int) -> list[tuple]:
    return [b for b in bad(t) if b is not ExprFactory.FALSE]


class _Step:
    """The inductive step of one property: from a free register state
    (over {1, 0, UNDEF}), k clean frames force a clean frame k.  Sound
    together with a base case clean on frames 0..k-1.  *free()* returns
    the step's bad builder and encoders; each frame is encoded when a
    step first reaches it.  The private solver's blockers only
    accumulate, so frame k - 1 stays blocked for every later step."""

    def __init__(self, free, cfg: FormalConfig, stats: SolverStats):
        self.free = free
        self.cfg = cfg
        self.stats = stats
        self.solver = Solver()
        self.bad = None
        self.encoders = ()
        self.frames: list[list[tuple]] = []

    def closes(self, k: int) -> bool | None:
        """True if step *k* proves the property, False if a state
        escapes it (a later step may still close), None if induction is
        over: a question ran out of budget or the encoder gave up."""
        try:
            if self.bad is None:
                self.bad, self.encoders = self.free()
            while len(self.frames) <= k:
                self.frames.append(_obligations(self.bad, len(self.frames)))
        except EncodeError:
            return None
        solver = self.solver
        # The solver reads a variable's domain when it first encodes
        # it: each new frame's register variables must be registered
        # before a question reaches them, or they range over {0, 1}.
        solver.domains.update(
            (key, _STATE_DOMAIN) for enc in self.encoders
            for key, kind in enc.var_kinds.items() if kind == "reg")
        if not self.frames[k]:
            return True
        for b in self.frames[k - 1]:
            solver.add_blocker(b)
        for target in self.frames[k]:
            match solver.solve((target,), budget=self.cfg.budget,
                               stats=self.stats):
                case Unknown():
                    return None
                case Sat():
                    return False
        return True


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


__all__ = [
    "FormalConfig",
    "default_properties",
    "prove",
    "eval_expr",
]
