"""Sequential equivalence checking by miter construction.

:func:`check_equivalence` builds both designs' frame encodings in one
shared :class:`ExprFactory`, renaming primary-input variables through
the ``input_key`` hook so both sides read the *same* variables — the
classic miter, minus the XOR tree: one "bad" obligation per paired
OUT-pin bit, a ``differs`` comparator, run through the BMC/k-induction
schedule of every property (:func:`~repro.formal.bmc.run_schedule`),
whose step runs on the product machine.

Verdicts (surfaced by ``zeusc equiv`` as PROVED-EQUIVALENT /
COUNTEREXAMPLE / UNKNOWN):

* ``proved`` — every OUT pin agrees on every cycle, for all
  fully-defined primary inputs (the comparator is not Kleene-monotone,
  so proofs quantify over defined stimuli — the same vectors
  :mod:`repro.analysis.equiv` samples, all of them);
* ``counterexample`` — a concrete stimulus trace, replayed through
  both simulators to a confirmed OUT-pin mismatch before it is
  reported;
* ``unknown`` — out of budget/depth, or a design defeats the encoder.

This is the subsystem that *proves* the paper's section-10 equivalence
claims (rippleCarry4 vs. rippleCarry(4), iterative vs. recursive
trees) instead of sampling them.
"""

from __future__ import annotations

from ..core.view import ClassView
from .bmc import FormalConfig, run_schedule
from .encode import EncodeError, Encoder
from .replay import replay_equiv
from .report import Counterexample, ProofReport, PropertyResult
from .solver import ExprFactory, Solver


def _interface(ctx) -> tuple[dict[str, list], dict[str, list]]:
    ins = {p.name: p.nets for p in ctx.netlist.ports if p.mode == "IN"}
    outs = {p.name: p.nets for p in ctx.netlist.ports if p.mode == "OUT"}
    return ins, outs


def _match_interfaces(ctx_a, ctx_b):
    ins_a, outs_a = _interface(ctx_a)
    ins_b, outs_b = _interface(ctx_b)
    shape_a = {n: len(nets) for n, nets in ins_a.items()}
    shape_b = {n: len(nets) for n, nets in ins_b.items()}
    if shape_a != shape_b:
        raise ValueError(
            f"input interfaces differ: {shape_a} vs {shape_b}")
    wide_a = {n: len(nets) for n, nets in outs_a.items()}
    wide_b = {n: len(nets) for n, nets in outs_b.items()}
    if wide_a != wide_b:
        raise ValueError(
            f"output interfaces differ: {wide_a} vs {wide_b}")
    return ins_a, ins_b, outs_a, outs_b


def _rel_name(ctx, ci: int) -> str:
    """Interface-relative display name (strip the top signal's own
    instance prefix) so both designs key e.g. an implicit RSET alike."""
    name = ctx.display[ci]
    return name.split(".", 1)[1] if "." in name else name


def _input_keyer(ctx, ins: dict[str, list]):
    """ci -> shared variable label.  Port bits key as (pin, bit); any
    other primary input keys as (relative name, -1)."""
    labels: dict[int, tuple] = {}
    for name, nets in ins.items():
        for i, net in enumerate(nets):
            labels[ctx.idx(net)] = (name, i)

    def input_key(ci: int, t: int) -> tuple:
        label = labels.get(ci)
        if label is None:
            label = (_rel_name(ctx, ci), -1)
            labels[ci] = label
        return ("in", label, t)

    return input_key, labels


def _shared_trace(witness: dict, depth: int, ins: dict[str, list],
                  encoders: list[Encoder]) -> list[dict[str, list[int]]]:
    """Per-frame pokes over the shared interface: every IN port at full
    width, plus any non-port primary inputs either side referenced
    (unassigned bits poke to 0; completion is sound, see bmc)."""
    ports = sorted((name, len(nets)) for name, nets in ins.items())
    scalars = sorted({
        key[1][0]
        for enc in encoders
        for key, kind in enc.var_kinds.items()
        if kind == "input" and key[1][1] == -1})
    frames: list[dict[str, list[int]]] = []
    for t in range(depth + 1):
        frame = {
            name: [witness.get(("in", (name, i), t), 0)
                   for i in range(width)]
            for name, width in ports
        }
        for name in scalars:
            frame[name] = [witness.get(("in", (name, -1), t), 0)]
        frames.append(frame)
    return frames


def check_equivalence(a, b,
                      config: FormalConfig | None = None) -> ProofReport:
    """Prove or refute cycle-for-cycle OUT-pin equivalence of two
    compiled circuits with matching interfaces."""
    from ..obs.spans import span

    cfg = config or FormalConfig()
    report = ProofReport("equiv",
                         [(a.name, a.stats()), (b.name, b.stats())],
                         cfg.to_dict())
    with span("formal", design=f"{a.name}~{b.name}", mode="equiv"):
        _equiv_into(a, b, cfg, report)
    return report


def _equiv_into(a, b, cfg: FormalConfig, report: ProofReport) -> None:
    ctx_a, ctx_b = ClassView(a.design), ClassView(b.design)
    ins_a, ins_b, outs_a, outs_b = _match_interfaces(ctx_a, ctx_b)
    out_names = sorted(outs_a)
    factory = ExprFactory()

    def encoders(init: str) -> tuple[Encoder, Encoder]:
        pair = []
        for scope, ctx, ins in (("a", ctx_a, ins_a), ("b", ctx_b, ins_b)):
            input_key, _ = _input_keyer(ctx, ins)
            pair.append(Encoder(
                ctx, factory, init=init, max_nodes=cfg.max_nodes,
                input_key=input_key,
                rand_key=lambda gid, t, s=scope: ("rand", (s, gid), t),
                reg_key=lambda ci, s=scope: ("reg", (s, ci))))
        return pair[0], pair[1]

    def miter(enc_a: Encoder, enc_b: Encoder):
        def bad(t: int) -> list[tuple]:
            # One obligation per OUT bit: each SAT question carries one
            # comparator cone, not the union over the interface.
            return [factory.differs(enc_a.peek(ctx_a.idx(na), t),
                                    enc_b.peek(ctx_b.idx(nb), t))
                    for name in out_names
                    for na, nb in zip(outs_a[name], outs_b[name])]
        return bad

    try:
        enc_a, enc_b = encoders("undef")
    except EncodeError as exc:
        report.results = [PropertyResult("equivalent", "unknown",
                                         reason=str(exc))]
        return

    def free():
        pair = encoders("free")
        return miter(*pair), pair

    def refute(t: int, witness: dict, clean_to: int) -> PropertyResult:
        return _refute(a, b, out_names, ins_a, enc_a, enc_b, t, witness,
                       clean_to)

    report.results = [run_schedule(
        "equivalent", miter(enc_a, enc_b), free,
        bool(a.netlist.regs) or bool(b.netlist.regs), cfg, report.stats,
        Solver(), refute,
        stateless="stateless designs: one frame covers every cycle "
                  "(over fully-defined inputs)",
        noun="mismatch")]
    report.clauses = factory.node_count


def _refute(a, b, out_names, ins: dict, enc_a: Encoder, enc_b: Encoder,
            t: int, witness: dict, clean_to: int) -> PropertyResult:
    uncontrolled = [
        key for key in witness
        if enc_a.var_kinds.get(key, enc_b.var_kinds.get(key, "input"))
        != "input"]
    if uncontrolled:
        return PropertyResult(
            "equivalent", "unknown", "bmc", clean_to,
            reason="mismatch requires uncontrollable state "
                   f"({len(uncontrolled)} RANDOM variable(s)); "
                   "no replayable stimulus")
    frames = _shared_trace(witness, t, ins, [enc_a, enc_b])
    # A run replays at most once: one simulator per circuit.
    confirmed, detail = replay_equiv(a.simulator(strict=False),
                                     b.simulator(strict=False),
                                     out_names, frames)
    cex = Counterexample(t, frames, confirmed, detail)
    if not confirmed:
        return PropertyResult(
            "equivalent", "unknown", "bmc", clean_to,
            reason=f"solver witness did not replay: {detail}",
            counterexample=cex)
    return PropertyResult("equivalent", "counterexample", "bmc", t,
                          counterexample=cex)
