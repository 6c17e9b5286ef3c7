"""``zeustime``: static timing analysis with SAT false-path pruning.

The subsystem layers (each module usable on its own):

- :mod:`.graph` — the timing graph + the repo's single levelized
  arrival-propagation implementation (``netstats.logic_levels`` and
  ``ClassView.levels`` delegate here);
- :mod:`.delay` — configurable delay models (``unit`` default, so
  every historical depth number is reproduced bit-for-bit; ``fanout``
  for per-opcode + wire-load estimates);
- :mod:`.paths` — exact k-worst path enumeration, worst first;
- :mod:`.falsepath` — SAT sensitization checks over the shared
  ``formal.solver`` cone encoder: proved-false paths are demoted and
  the enumerator pulls the next candidate; SAT witnesses replay
  through the real simulator before a path reports ``confirmed``;
- :mod:`.report` — the versioned ``zeus.timing/1`` schema.

:func:`analyze_timing` is the front door the CLI, metrics exporter and
tests share.
"""

from __future__ import annotations

from ..core.view import ClassView
from .delay import FANOUT, GATE_DELAYS, MODELS, UNIT, DelayModel, get_model
from .falsepath import PathChecker
from .graph import TimingEdge, TimingGraph, propagate_levels
from .paths import EnumStats, TimingPath, enumerate_paths
from .report import (
    SCHEMA,
    TimingReport,
    validate_timing_report,
    write_timing_report,
)

__all__ = [
    "DelayModel", "UNIT", "FANOUT", "MODELS", "GATE_DELAYS", "get_model",
    "TimingGraph", "TimingEdge", "propagate_levels",
    "TimingPath", "enumerate_paths", "EnumStats", "PathChecker",
    "TimingReport", "validate_timing_report", "write_timing_report",
    "SCHEMA", "analyze_timing",
]


def _hops(ctx, graph: TimingGraph, p: TimingPath) -> list[dict]:
    """Net-by-net rendering with path-local arrival at every hop."""
    hops = [{"net": ctx.display[p.nets[0]], "arrival": 0,
             "through": "start"}]
    t = 0
    for edge, ci in zip(p.edges, p.nets[1:]):
        t = t + graph.edge_delay(edge)
        hops.append({"net": ctx.display[ci], "arrival": t,
                     "through": edge.describe(ctx)})
    return hops


def _path_dict(ctx, graph: TimingGraph, p: TimingPath, clock,
               checker: PathChecker | None) -> dict:
    d = {
        "startpoint": ctx.display[p.start],
        "endpoint": ctx.display[p.end],
        "kind": p.kind,
        "delay": p.delay,
        "slack": (clock - p.delay) if clock is not None else None,
        "sensitization": p.sensitization,
        "reason": p.reason,
        "nets": _hops(ctx, graph, p),
    }
    if p.witness is not None and checker is not None:
        d["witness"] = checker.witness_names(p.witness)
    if p.replay_confirmed is not None:
        d["replay"] = {"confirmed": p.replay_confirmed,
                       "detail": p.replay_detail}
    return d


def analyze_timing(circuit, *, model="unit", clock=None, k: int = 4,
                   sat: bool = True, budget: int = 20_000,
                   max_pops: int = 20_000,
                   max_sat: int = 200) -> TimingReport:
    """Run STA over a compiled circuit and return a
    :class:`TimingReport`.

    Enumerates candidate paths worst-first; with *sat* (the default)
    each candidate's sensitization conditions go through the shared
    bounded solver — proved-false paths land in ``report.pruned`` and
    enumeration continues until the *k* worst **true** paths are in
    hand and the min-clock-period bound (the worst true
    register-endpoint path) is confirmed.  ``max_pops`` bounds the
    enumerator and ``max_sat`` the number of SAT classifications per
    run; when either trips, remaining candidates report ``assumed``
    (never optimistic).
    """
    from ..obs.spans import span

    dm = get_model(model)

    with span("timing", design=circuit.name, model=dm.name):
        ctx = ClassView(circuit.design)
        graph = TimingGraph(ctx, dm)
        report = TimingReport(
            design=circuit.name, stats=circuit.stats(),
            model_name=dm.name, wire_factor=dm.wire_factor, clock=clock)
        if not graph.ok:
            report.cycle = [ctx.display[ci] for ci in graph.cycle]
            return report
        report.worst_arrival = graph.worst_arrival
        report.startpoints = len(graph.startpoints)
        endpoints = graph.endpoints
        report.endpoints = len(endpoints)
        arr = graph.arrival
        reg_arrivals = [arr[ci] for ci, kind in endpoints
                        if kind == "reg"]
        has_regs = bool(reg_arrivals)
        checker = PathChecker(ctx, budget=budget) if sat else None

        min_clock = None
        min_clock_exact = True
        true_paths: list[TimingPath] = []
        examined = 0
        exhausted = True  # generator ran dry (all paths seen)
        enum_stats = EnumStats()
        for p in enumerate_paths(graph, max_pops=max_pops,
                                 stats=enum_stats):
            examined += 1
            if checker is not None and checker.stats.sat_calls < max_sat:
                checker.classify(circuit, p)
            elif checker is not None:
                p.reason = f"per-run SAT call limit ({max_sat}) reached"
            else:
                p.reason = "SAT pruning disabled"
            if p.is_false:
                report.pruned.append({
                    "startpoint": ctx.display[p.start],
                    "endpoint": ctx.display[p.end],
                    "kind": p.kind,
                    "delay": p.delay,
                    "reason": p.reason,
                })
                continue
            if min_clock is None and p.end_kind == "reg":
                min_clock = p.delay  # worst-first: first true = worst
            if len(true_paths) < k:
                true_paths.append(p)
            if len(true_paths) >= k and (min_clock is not None
                                         or not has_regs):
                exhausted = False  # stopped on purpose, not dry
                break
        else:
            # The generator stopped: either the heap ran dry (every
            # path seen) or the pop budget tripped with candidates
            # still queued — assume the raw arrival bound in the
            # latter case (pessimistic, never optimistic).
            if enum_stats.budget_tripped and has_regs \
                    and min_clock is None:
                min_clock = max(reg_arrivals)
                min_clock_exact = False
        if (has_regs and min_clock is None and exhausted
                and not enum_stats.budget_tripped):
            # Every register-endpoint path was enumerated and proved
            # false: no combinational path constrains the clock.
            min_clock = 0
        report.min_clock_period = min_clock
        report.min_clock_exact = min_clock_exact
        report.paths_examined = examined
        report.paths = [_path_dict(ctx, graph, p, clock, checker)
                        for p in true_paths]
        if checker is not None:
            report.solver = checker.stats
        return report
