"""The lint pass registry.

Each pass is a function ``(ctx, config, prover) -> list[Finding]``
registered together with the :class:`~repro.lint.model.Rule` objects it
can emit.  All passes share the one :class:`~repro.core.view.ClassView`
of the design, and the one :class:`~repro.lint.prover.Prover` of the
run, built with the run's config; none walks the netlist on its own.

The registry order is the report order: the prover first (it is the
headline check), then the structural passes.
"""

from __future__ import annotations

import re
from typing import Callable

from ..core.values import Logic
from ..core.view import ClassView
from ..lang.errors import Severity
from .model import Finding, LintConfig, Rule, register_rule
from .prover import Prover, ProverResult, eval_expr

# -- rule catalogue ----------------------------------------------------------

DRIVER_CONFLICT = register_rule(Rule(
    "driver-conflict", "ZL001", Severity.ERROR,
    "two drivers of one net are provably enabled together "
    "(a witness input assignment burns transistors)",
    paper="sections 3.2, 5, 8"))
DRIVER_UNPROVED = register_rule(Rule(
    "driver-unproved", "ZL002", Severity.WARNING,
    "driver exclusivity could not be proved; the runtime "
    "multi-assignment check remains the oracle",
    paper="sections 5, 8"))
UNDEF_REACH = register_rule(Rule(
    "undef-reachability", "ZL010", Severity.NOTE,
    "an output can see UNDEF from undriven signals or never-reset "
    "registers", paper="section 8"))
COMB_CYCLE = register_rule(Rule(
    "comb-cycle", "ZL020", Severity.ERROR,
    "combinational feedback loop not broken by a REG",
    paper="sections 1, 5"))
WRITE_ONLY = register_rule(Rule(
    "write-only", "ZL030", Severity.WARNING,
    "a signal is assigned but never read", paper="section 4.1"))
DEAD_DRIVER = register_rule(Rule(
    "dead-driver", "ZL031", Severity.WARNING,
    "a driver's enable condition is provably constant",
    paper="section 4.7"))
REG_NO_RESET = register_rule(Rule(
    "reg-no-reset", "ZL040", Severity.WARNING,
    "a register is never loaded with a constant, so it can only leave "
    "its initial UNDEF through data inputs", paper="section 5"))
FANOUT_LIMIT = register_rule(Rule(
    "fanout-limit", "ZL050", Severity.WARNING,
    "a net drives more consumers than the configured limit"))
DEPTH_LIMIT = register_rule(Rule(
    "logic-depth-limit", "ZL051", Severity.WARNING,
    "the combinational depth exceeds the configured limit"))


# -- the prover pass ---------------------------------------------------------

def driver_exclusivity_pass(
    ctx: ClassView, config: LintConfig, prover: Prover,
    result_out: list[ProverResult] | None = None,
) -> list[Finding]:
    """Run the driver-exclusivity prover; one finding per conflicting or
    unproved net.  ``result_out`` (when given) receives the full
    :class:`ProverResult` for the report's ``prover`` section."""
    result = prover.run()
    if result_out is not None:
        result_out.append(result)
    findings: list[Finding] = []
    for net in result.nets:
        span = ctx.span_of(net.ci)
        if net.verdict == "conflicting":
            pair = next(p for p in net.pairs if p.verdict == "conflicting")
            drvs = ctx.drivers_of[net.ci]
            witness = ", ".join(f"{k}={v}" for k, v in
                                sorted((pair.witness or {}).items()))
            findings.append(Finding(
                DRIVER_CONFLICT.name, Severity.ERROR,
                f"signal {net.net!r} is driven by {drvs[pair.a].describe(ctx)} "
                f"and {drvs[pair.b].describe(ctx)} at the same time under "
                f"{{{witness}}}; this would burn transistors",
                span, net.net,
                {"witness": pair.witness or {}, "verdict": net.verdict}))
        elif net.verdict == "unknown":
            unknown = [p for p in net.pairs if p.verdict == "unknown"]
            findings.append(Finding(
                DRIVER_UNPROVED.name, Severity.WARNING,
                f"cannot prove the {net.drivers} drivers of {net.net!r} "
                f"mutually exclusive ({len(unknown)} of {len(net.pairs)} "
                f"pair(s) unresolved: {unknown[0].reason})",
                span, net.net, {"verdict": net.verdict}))
    return findings


# -- structural passes -------------------------------------------------------

def comb_cycle_pass(
    ctx: ClassView, config: LintConfig, prover: Prover
) -> list[Finding]:
    """Report one combinational cycle with its full path and spans
    (the checker's acyclicity error, upgraded with the route)."""
    if ctx.topo_order is not None:
        return []
    cycle = ctx.cycle
    named = [ctx.display[ci] for ci in cycle]
    span = next((ctx.span_of(ci) for ci in cycle
                 if ctx.span_of(ci).length), ctx.span_of(cycle[0]))
    return [Finding(
        COMB_CYCLE.name, Severity.ERROR,
        "combinational feedback loop (not through a register): "
        + " -> ".join(named), span, named[0],
        {"cycle": named})]


def write_only_pass(
    ctx: ClassView, config: LintConfig, prover: Prover
) -> list[Finding]:
    """Locally declared signals that are assigned but never read
    (:meth:`~repro.core.view.ClassView.write_only`: ports, ``==``-alias
    duplicates and synthetic nets excluded)."""
    return [Finding(WRITE_ONLY.name, Severity.WARNING, message,
                    ctx.span_of(ci), ctx.display[ci])
            for ci, message in ctx.write_only()]


def dead_driver_pass(
    ctx: ClassView, config: LintConfig, prover: Prover
) -> list[Finding]:
    """Enable conditions that fold to a constant: guard 0 never drives
    (dead code), guard 1 makes the IF vacuous (and the assignment
    effectively unconditional)."""
    findings = []
    for ci in range(ctx.n):
        for drv in ctx.drivers_of[ci]:
            if drv.uncond:
                continue
            folded = prover.fold_guard(drv)
            if folded is None and prover.guard_can_fire(drv) is False:
                folded = 0  # provably never 1 (e.g. AND(a, NOT a))
            if folded == 0:
                findings.append(Finding(
                    DEAD_DRIVER.name, Severity.WARNING,
                    f"driver of {ctx.display[ci]!r} "
                    f"({drv.describe(ctx)}) can never fire: its enable "
                    "condition is constant 0",
                    drv.span if drv.span.length else ctx.span_of(ci),
                    ctx.display[ci], {"constant": 0}))
            elif folded == 1:
                findings.append(Finding(
                    DEAD_DRIVER.name, Severity.WARNING,
                    f"driver of {ctx.display[ci]!r} "
                    f"({drv.describe(ctx)}) has a constant-1 enable "
                    "condition; the IF is vacuous",
                    drv.span if drv.span.length else ctx.span_of(ci),
                    ctx.display[ci], {"constant": 1}))
    return findings


def reg_has_reset(ctx: ClassView, reg, prover: Prover) -> bool:
    """Heuristic reset detection: some driver of the data pin loads a
    defined constant (``IF RSET THEN r.in := 0`` elaborates to a guarded
    constant driver)."""
    for drv in ctx.drivers_of[ctx.idx(reg.d)]:
        if drv.const is not None and drv.const in (Logic.ZERO, Logic.ONE):
            return True
        # A source that folds to a defined constant also counts.
        if drv.src is not None and eval_expr(
                prover.builder.expr(drv.src), {}) in (0, 1):
            return True
    return False


def _generic_name(name: str) -> str:
    """Index-generalize an instance path: ``mem.ram[3][7]`` ->
    ``mem.ram[*][*]``.  Used to fold per-element findings on register
    and signal arrays into one finding per array."""
    return re.sub(r"\[\d+\]", "[*]", name)


def reg_no_reset_pass(
    ctx: ClassView, config: LintConfig, prover: Prover
) -> list[Finding]:
    # Group never-reset registers by index-generalized name so a
    # 16x8 register file yields one finding, not 128.
    groups: dict[str, list] = {}
    seen: set[int] = set()
    for reg in ctx.netlist.regs:
        qi = ctx.idx(reg.q)
        if qi in seen:
            continue
        seen.add(qi)
        if reg_has_reset(ctx, reg, prover):
            continue
        name = reg.name or f"$reg{reg.id}"
        groups.setdefault(_generic_name(name), []).append(reg)
    findings = []
    for generic in sorted(groups):
        regs = groups[generic]
        what = (f"register {generic!r}" if len(regs) == 1
                else f"register array {generic!r} ({len(regs)} registers)")
        findings.append(Finding(
            REG_NO_RESET.name, Severity.WARNING,
            f"{what} is never loaded with a constant; it "
            "starts UNDEF and can only be initialized through its data "
            "inputs", regs[0].span, generic,
            {"registers": len(regs)}))
    return findings


def undef_reachability_pass(
    ctx: ClassView, config: LintConfig, prover: Prover
) -> list[Finding]:
    """Forward-propagate UNDEF origins (read-but-undriven nets, outputs
    of never-reset registers) to the design's OUT ports."""
    origins: dict[int, str] = {}
    for ci in sorted(ctx.readers - ctx.driven):
        if not ctx.is_input[ci]:
            origins[ci] = "undriven"
    reset_cache: dict[int, bool] = {}
    for reg in ctx.netlist.regs:
        qi = ctx.idx(reg.q)
        if qi not in reset_cache:
            reset_cache[qi] = reg_has_reset(ctx, reg, prover)
        if not reset_cache[qi]:
            origins.setdefault(qi, "no reset")
    if not origins:
        return []
    # BFS over the forward dependency edges from every origin at once,
    # remembering one origin per reached class.
    reached: dict[int, int] = {ci: ci for ci in origins}
    frontier = list(origins)
    while frontier:
        nxt: list[int] = []
        for ci in frontier:
            for dep in ctx.fanout_edges.get(ci, ()):
                if dep not in reached:
                    reached[dep] = reached[ci]
                    nxt.append(dep)
        frontier = nxt
    # One note per (index-generalized output, origin kind): a bussed
    # output reached per-bit collapses into a single finding.
    groups: dict[tuple[str, str], list[int]] = {}
    for ci in range(ctx.n):
        if not ctx.is_output[ci] or ci not in reached:
            continue
        key = (_generic_name(ctx.display[ci]), origins[reached[ci]])
        groups.setdefault(key, []).append(ci)
    findings = []
    for (generic, kind), members in sorted(groups.items()):
        first = members[0]
        origin = reached[first]
        what = (f"output {generic!r}" if len(members) == 1
                else f"output {generic!r} ({len(members)} bits)")
        findings.append(Finding(
            UNDEF_REACH.name, Severity.NOTE,
            f"{what} can observe UNDEF via "
            f"{ctx.display[origin]!r} ({kind})",
            ctx.span_of(first), generic,
            {"origin": ctx.display[origin], "kind": kind,
             "bits": len(members)}))
    return findings


def limits_pass(
    ctx: ClassView, config: LintConfig, prover: Prover
) -> list[Finding]:
    """Configurable fan-out and logic-depth thresholds, computed by the
    unit-delay timing graph ``zeusc timing`` runs (fan-out = wire load,
    depth = arrival time), so depth findings cite the critical path the
    STA would report."""
    from ..timing.delay import UNIT
    from ..timing.graph import TimingGraph

    findings = []
    graph = TimingGraph(ctx, UNIT)
    for ci, count in sorted(graph.fanout.items()):
        if count > config.max_fanout:
            findings.append(Finding(
                FANOUT_LIMIT.name, Severity.WARNING,
                f"net {ctx.display[ci]!r} drives {count} consumers "
                f"(limit {config.max_fanout})",
                ctx.span_of(ci), ctx.display[ci], {"fanout": count}))
    if graph.ok:
        depth = graph.worst_arrival
        if depth > config.max_depth:
            crit = graph.critical_path()
            deepest = crit[-1]
            named = [ctx.display[ci] for ci in crit
                     if not ctx.display[ci].split(".")[-1].startswith("$")]
            cite = " -> ".join(named if len(named) >= 2
                               else [ctx.display[ci] for ci in crit])
            findings.append(Finding(
                DEPTH_LIMIT.name, Severity.WARNING,
                f"combinational depth is {depth} unit delays "
                f"(limit {config.max_depth}); deepest net is "
                f"{ctx.display[deepest]!r}; critical path: {cite}",
                ctx.span_of(deepest), ctx.display[deepest],
                {"depth": depth, "critical_path": cite}))
    return findings


#: Registry: (pass name, function).  The prover pass is handled
#: specially by the runner (it also feeds the report's prover section).
PassFn = Callable[[ClassView, LintConfig, Prover], list[Finding]]
PASSES: list[tuple[str, PassFn]] = [
    ("comb-cycle", comb_cycle_pass),
    ("undef-reachability", undef_reachability_pass),
    ("write-only", write_only_pass),
    ("dead-driver", dead_driver_pass),
    ("reg-no-reset", reg_no_reset_pass),
    ("limits", limits_pass),
]
