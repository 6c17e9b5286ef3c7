"""Machine-readable metrics export (the ``zeus.metrics/1`` schema).

A report is a plain JSON object:

.. code-block:: none

    {
      "schema": "zeus.metrics/1",
      "design": {"name", "nets", "gates", "connections", "registers"},
      "compile": {                      # omitted if no spans captured
        "phases":      {name: inclusive seconds, ...},
        "self_phases": {name: exclusive seconds, ...},
        "spans":       [{name, path, start, duration_s, depth}, ...]
      },
      "sim": {                          # omitted if no simulation ran
        "engine",                       # "levelized"|"dataflow"|"codegen"
        "cycles", "firings", "firings_per_cycle_avg", "gate_evals",
        "driver_evals", "propagation_steps", "latches", "violations",
        "peak_cycle", "peak_cycle_firings",
        "firings_by_cycle": [...], "steps_by_cycle": [...],
        "nets":  [{"name", "toggles", "fires"}, ...],
        "gates": [{"name", "evals", "fires"}, ...],
        "batched": {                    # present on the batched engine
          "lanes",                      # stimulus lanes per pass
          "lane_cycles",                # lanes * cycles evaluated
          "fast_path"                   # true = bit-parallel schedule,
        }                               # false = per-lane fallback
      },
      "lint": {                         # omitted if lint did not run
        "errors", "warnings", "notes", "suppressed",
        "by_rule": {rule: count},
        "prover": {"nets_analyzed", "proved_exclusive",
                   "proved_conflicting", "unknown"}   # omitted if off
      },
      "formal": {                       # omitted if zeusprove did not run
        "mode",                         # "prove" | "equiv"
        "verdict",                      # "proved"|"counterexample"|"unknown"
        "properties", "proved", "refuted", "unknown",
        "solver": {"clauses", "decisions", "nodes", "sat_calls",
                   "depth_reached", "budget_exhausted"}
      },
      "timing": {                       # omitted if zeustime did not run
        "model",                        # "unit" | "fanout"
        "worst_arrival", "min_clock_period",     # null: no registers
        "paths_reported", "paths_pruned", "violations",
        "solver": {"sat_calls", "decisions", "nodes",
                   "budget_exhausted"}
      },
      "wall": {"elapsed_s", "cycles_per_s"},  # omitted without timing
      "service": {                      # zeusd only (see repro.service)
        "uptime_s",
        "requests": {"total", "errors", "shed",
                     "by_endpoint": {endpoint: count}},
        "cache":    {"entries", "capacity", "hits", "misses",
                     "evictions", "hit_rate"},
        "pool":     {"workers", "queue_depth", "max_queue", "active",
                     "submitted", "completed", "timeouts", "shed"},
        "sessions": {"open",
                     "muxes": [{"design", "lanes", "occupied"}, ...]}
      }
    }

A service report (from ``zeusd``'s ``GET /v1/metrics``) describes the
daemon rather than one design, so ``design`` is optional exactly when
``service`` is present; :func:`service_metrics_report` builds one.

:func:`validate_report` is the schema's executable definition — the
docs, the tests and the CLI all go through it.

This module also defines the ``zeus.trace/1`` schema: the serialised
form of a flight-recorder window (:mod:`repro.obs.flight`), optionally
carrying a causal explanation (:mod:`repro.obs.causal`):

.. code-block:: none

    {
      "schema": "zeus.trace/1",
      "design": {"name", "nets", "gates", "connections", "registers"},
      "engine",                         # "levelized"|"dataflow"|"codegen"
      "lanes",                          # int | null (scalar engines)
      "window": {"first", "last",       # recorded cycle range (null/empty)
                 "capacity", "recorded", "dropped"},
      "events": [                       # time-ordered
        {"cycle", "kind",               # "fire"|"latch"|"poke"|"violation"
         "net", "value",               # value as "0"|"1"|"UNDEF"|"NOINFL"
         "cause"?,                     # static producer / event cause
         "lane"?,                      # violations on the batched engine
         "values"?},                   # the conflicting drive values
      ],
      "explanation"?: {                 # from `zeusc explain`
        "target": {"path", "cycle", "value"},
        "engine", "node_count", "truncated",
        "tree": [{ "net", "cycle", "value", "reason",
                   "shared"?, "truncated"?, "children"? }, ...]
      }
    }

:func:`validate_trace_report` is its executable definition.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .spans import SpanRegistry

if TYPE_CHECKING:
    from .. import Circuit
    from ..core.simulator import Simulator

SCHEMA = "zeus.metrics/1"
TRACE_SCHEMA = "zeus.trace/1"

#: Values a trace event may carry (stringified Logic, or the
#: never-fired marker used by causal nodes).
_LOGIC_NAMES = ("0", "1", "UNDEF", "NOINFL")
_EVENT_KINDS = ("fire", "latch", "poke", "violation")


def metrics_report(
    circuit: "Circuit",
    sim: "Simulator | None" = None,
    registry: SpanRegistry | None = None,
    *,
    elapsed: float | None = None,
    top: int | None = None,
    lint=None,
    formal=None,
    timing=None,
) -> dict:
    """Assemble the full ``zeus.metrics/1`` report dict."""
    stats = circuit.netlist.stats()
    report: dict = {
        "schema": SCHEMA,
        "design": {
            "name": circuit.name,
            "nets": stats.get("nets", 0),
            "gates": stats.get("gates", 0),
            "connections": stats.get("connections", 0),
            "registers": stats.get("registers", 0),
        },
    }
    if registry is not None and registry.spans:
        report["compile"] = {
            "phases": registry.phase_totals(),
            "self_phases": registry.self_times(),
            "spans": registry.to_dicts(),
        }
    if sim is not None and sim.metrics.enabled:
        report["sim"] = sim.metrics.to_dict(top=top)
    if lint is not None:
        section = {
            "errors": lint.errors,
            "warnings": lint.warnings,
            "notes": lint.notes,
            "suppressed": lint.suppressed,
            "by_rule": lint.by_rule(),
        }
        if lint.prover is not None:
            section["prover"] = {
                "nets_analyzed": len(lint.prover.nets),
                "proved_exclusive": lint.prover.proved_exclusive,
                "proved_conflicting": lint.prover.proved_conflicting,
                "unknown": lint.prover.unknown,
            }
        report["lint"] = section
    if formal is not None:
        report["formal"] = {
            "mode": formal.mode,
            "verdict": formal.verdict,
            "properties": len(formal.results),
            "proved": formal.proved,
            "refuted": formal.refuted,
            "unknown": formal.unknown,
            "solver": {
                "clauses": formal.clauses,
                "decisions": formal.stats.decisions,
                "nodes": formal.stats.nodes,
                "sat_calls": formal.stats.sat_calls,
                "depth_reached": formal.depth_reached,
                "budget_exhausted": formal.stats.budget_exhausted,
            },
        }
    if timing is not None:
        report["timing"] = {
            "model": timing.model_name,
            "worst_arrival": timing.worst_arrival,
            "min_clock_period": timing.min_clock_period,
            "paths_reported": len(timing.paths),
            "paths_pruned": len(timing.pruned),
            "violations": len(timing.violations),
            "solver": {
                "sat_calls": timing.solver.sat_calls,
                "decisions": timing.solver.decisions,
                "nodes": timing.solver.nodes,
                "budget_exhausted": timing.solver.budget_exhausted,
            },
        }
    if elapsed is not None:
        cycles = sim.metrics.cycles if sim is not None else 0
        report["wall"] = {
            "elapsed_s": elapsed,
            "cycles_per_s": (cycles / elapsed) if elapsed > 0 else 0.0,
        }
    return report


def service_metrics_report(
    service: dict, registry: SpanRegistry | None = None
) -> dict:
    """Assemble a ``zeus.metrics/1`` report describing a running
    ``zeusd`` daemon (the *service* section comes from
    :meth:`repro.service.server.ZeusDaemon.stats`); *registry* adds the
    daemon's recent request spans as a ``compile`` section."""
    report: dict = {"schema": SCHEMA, "service": service}
    if registry is not None and registry.spans:
        report["compile"] = {
            "phases": registry.phase_totals(),
            "self_phases": registry.self_times(),
            "spans": registry.to_dicts(),
        }
    return report


def write_metrics(path: str, report: dict) -> None:
    """Validate and write a report as JSON."""
    validate_report(report)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def validate_report(report: dict) -> None:
    """Raise ``ValueError`` unless *report* conforms to the documented
    ``zeus.metrics/1`` shape."""

    def need(obj: dict, key: str, types, where: str):
        if key not in obj:
            raise ValueError(f"metrics report: missing {where}.{key}")
        if not isinstance(obj[key], types):
            raise ValueError(
                f"metrics report: {where}.{key} must be "
                f"{types}, got {type(obj[key]).__name__}"
            )
        return obj[key]

    if not isinstance(report, dict):
        raise ValueError("metrics report must be a dict")
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"metrics report: schema must be {SCHEMA!r}, "
            f"got {report.get('schema')!r}"
        )
    if "design" in report or "service" not in report:
        design = need(report, "design", dict, "report")
        need(design, "name", str, "design")
        for key in ("nets", "gates", "connections", "registers"):
            need(design, key, int, "design")

    if "service" in report:
        service = need(report, "service", dict, "report")
        need(service, "uptime_s", (int, float), "service")
        requests = need(service, "requests", dict, "service")
        for key in ("total", "errors", "shed"):
            need(requests, key, int, "service.requests")
        by_endpoint = need(requests, "by_endpoint", dict,
                           "service.requests")
        for ep, count in by_endpoint.items():
            if not isinstance(count, int):
                raise ValueError(
                    f"metrics report: service.requests.by_endpoint"
                    f"[{ep!r}] must be int"
                )
        cache = need(service, "cache", dict, "service")
        for key in ("entries", "capacity", "hits", "misses", "evictions"):
            need(cache, key, int, "service.cache")
        need(cache, "hit_rate", (int, float), "service.cache")
        pool = need(service, "pool", dict, "service")
        for key in ("workers", "queue_depth", "max_queue", "active",
                    "submitted", "completed", "timeouts", "shed"):
            need(pool, key, int, "service.pool")
        sessions = need(service, "sessions", dict, "service")
        need(sessions, "open", int, "service.sessions")
        for mux in need(sessions, "muxes", list, "service.sessions"):
            need(mux, "design", str, "service.sessions.muxes[]")
            need(mux, "lanes", int, "service.sessions.muxes[]")
            need(mux, "occupied", int, "service.sessions.muxes[]")

    if "compile" in report:
        comp = need(report, "compile", dict, "report")
        phases = need(comp, "phases", dict, "compile")
        for name, dur in phases.items():
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"metrics report: compile.phases[{name!r}] must be a "
                    f"non-negative number"
                )
        for sp in need(comp, "spans", list, "compile"):
            need(sp, "name", str, "compile.spans[]")
            need(sp, "duration_s", (int, float), "compile.spans[]")

    if "sim" in report:
        sim = need(report, "sim", dict, "report")
        for key in ("cycles", "firings", "gate_evals", "driver_evals",
                    "propagation_steps", "latches", "violations",
                    "peak_cycle", "peak_cycle_firings"):
            need(sim, key, int, "sim")
        need(sim, "firings_per_cycle_avg", (int, float), "sim")
        if "engine" in sim:
            need(sim, "engine", str, "sim")
        if len(need(sim, "firings_by_cycle", list, "sim")) != sim["cycles"]:
            raise ValueError(
                "metrics report: sim.firings_by_cycle length must equal "
                "sim.cycles"
            )
        need(sim, "steps_by_cycle", list, "sim")
        for net in need(sim, "nets", list, "sim"):
            need(net, "name", str, "sim.nets[]")
            need(net, "toggles", int, "sim.nets[]")
            need(net, "fires", int, "sim.nets[]")
        for gate in need(sim, "gates", list, "sim"):
            need(gate, "name", str, "sim.gates[]")
            need(gate, "evals", int, "sim.gates[]")
            need(gate, "fires", int, "sim.gates[]")
        if "batched" in sim:
            batched = need(sim, "batched", dict, "sim")
            need(batched, "lanes", int, "sim.batched")
            need(batched, "lane_cycles", int, "sim.batched")
            need(batched, "fast_path", bool, "sim.batched")
            if batched["lanes"] < 1:
                raise ValueError(
                    "metrics report: sim.batched.lanes must be >= 1"
                )

    if "lint" in report:
        lint = need(report, "lint", dict, "report")
        for key in ("errors", "warnings", "notes", "suppressed"):
            need(lint, key, int, "lint")
        by_rule = need(lint, "by_rule", dict, "lint")
        for rule, count in by_rule.items():
            if not isinstance(count, int):
                raise ValueError(
                    f"metrics report: lint.by_rule[{rule!r}] must be int"
                )
        if "prover" in lint:
            prover = need(lint, "prover", dict, "lint")
            for key in ("nets_analyzed", "proved_exclusive",
                        "proved_conflicting", "unknown"):
                need(prover, key, int, "lint.prover")

    if "formal" in report:
        formal = need(report, "formal", dict, "report")
        if formal.get("mode") not in ("prove", "equiv"):
            raise ValueError(
                f"metrics report: bad formal.mode {formal.get('mode')!r}")
        if formal.get("verdict") not in ("proved", "counterexample",
                                         "unknown"):
            raise ValueError(
                "metrics report: bad formal.verdict "
                f"{formal.get('verdict')!r}")
        for key in ("properties", "proved", "refuted", "unknown"):
            need(formal, key, int, "formal")
        solver = need(formal, "solver", dict, "formal")
        for key in ("clauses", "decisions", "nodes", "sat_calls",
                    "depth_reached"):
            need(solver, key, int, "formal.solver")
        need(solver, "budget_exhausted", bool, "formal.solver")

    if "timing" in report:
        timing = need(report, "timing", dict, "report")
        need(timing, "model", str, "timing")
        need(timing, "worst_arrival", (int, float), "timing")
        if not isinstance(timing.get("min_clock_period"),
                          (int, float, type(None))):
            raise ValueError(
                "metrics report: timing.min_clock_period must be a "
                "number or null")
        for key in ("paths_reported", "paths_pruned", "violations"):
            need(timing, key, int, "timing")
        solver = need(timing, "solver", dict, "timing")
        for key in ("sat_calls", "decisions", "nodes"):
            need(solver, key, int, "timing.solver")
        need(solver, "budget_exhausted", bool, "timing.solver")

    if "wall" in report:
        wall = need(report, "wall", dict, "report")
        need(wall, "elapsed_s", (int, float), "wall")
        need(wall, "cycles_per_s", (int, float), "wall")


# -- zeus.trace/1 ------------------------------------------------------------


def trace_report(
    circuit: "Circuit",
    sim: "Simulator",
    *,
    explanation=None,
    include_synthetic: bool = False,
    max_events: int | None = None,
) -> dict:
    """Assemble a ``zeus.trace/1`` report from *sim*'s flight recorder
    (raises :class:`~repro.lang.errors.SimulationError` without one).

    Elaborator-synthesized ``$``-net firings are dropped unless
    *include_synthetic*; *max_events* truncates the event list (oldest
    first) for huge windows."""
    from ..lang.errors import SimulationError

    fl = sim.flight
    if fl is None:
        raise SimulationError(
            "trace export needs a flight recorder: construct the "
            "simulator with flight=N (or zeusc sim --flight N)"
        )
    stats = circuit.netlist.stats()
    events = [
        ev.to_dict()
        for ev in fl.events(include_synthetic=include_synthetic)
    ]
    truncated_events = 0
    if max_events is not None and len(events) > max_events:
        truncated_events = len(events) - max_events
        events = events[:max_events]
    report: dict = {
        "schema": TRACE_SCHEMA,
        "design": {
            "name": circuit.name,
            "nets": stats.get("nets", 0),
            "gates": stats.get("gates", 0),
            "connections": stats.get("connections", 0),
            "registers": stats.get("registers", 0),
        },
        "engine": sim.engine,
        "lanes": sim.lanes,
        "window": {
            "first": fl.first_cycle,
            "last": fl.last_cycle,
            "capacity": fl.capacity,
            "recorded": len(fl),
            "dropped": fl.dropped,
        },
        "events": events,
    }
    if truncated_events:
        report["window"]["truncated_events"] = truncated_events
    if explanation is not None:
        report["explanation"] = explanation.to_dict()
    return report


def write_trace(path: str, report: dict) -> None:
    """Validate and write a ``zeus.trace/1`` report as JSON."""
    validate_trace_report(report)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def validate_trace_report(report: dict) -> None:
    """Raise ``ValueError`` unless *report* conforms to the documented
    ``zeus.trace/1`` shape."""

    def need(obj: dict, key: str, types, where: str):
        if key not in obj:
            raise ValueError(f"trace report: missing {where}.{key}")
        if not isinstance(obj[key], types):
            raise ValueError(
                f"trace report: {where}.{key} must be "
                f"{types}, got {type(obj[key]).__name__}"
            )
        return obj[key]

    if not isinstance(report, dict):
        raise ValueError("trace report must be a dict")
    if report.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"trace report: schema must be {TRACE_SCHEMA!r}, "
            f"got {report.get('schema')!r}"
        )
    design = need(report, "design", dict, "report")
    need(design, "name", str, "design")
    for key in ("nets", "gates", "connections", "registers"):
        need(design, key, int, "design")
    need(report, "engine", str, "report")
    if "lanes" not in report or not (
        report["lanes"] is None or isinstance(report["lanes"], int)
    ):
        raise ValueError("trace report: lanes must be int or null")

    window = need(report, "window", dict, "report")
    for key in ("capacity", "recorded", "dropped"):
        if need(window, key, int, "window") < 0:
            raise ValueError(f"trace report: window.{key} must be >= 0")
    for key in ("first", "last"):
        if key not in window or not (
            window[key] is None or isinstance(window[key], int)
        ):
            raise ValueError(
                f"trace report: window.{key} must be int or null"
            )
    if (window["first"] is None) != (window["recorded"] == 0):
        raise ValueError(
            "trace report: window.first is null exactly when nothing "
            "was recorded"
        )

    prev_cycle = None
    for ev in need(report, "events", list, "report"):
        cyc = need(ev, "cycle", int, "events[]")
        if prev_cycle is not None and cyc < prev_cycle:
            raise ValueError("trace report: events must be time-ordered")
        prev_cycle = cyc
        if need(ev, "kind", str, "events[]") not in _EVENT_KINDS:
            raise ValueError(
                f"trace report: bad event kind {ev['kind']!r}"
            )
        need(ev, "net", str, "events[]")
        if need(ev, "value", str, "events[]") not in _LOGIC_NAMES:
            raise ValueError(
                f"trace report: bad event value {ev['value']!r}"
            )
        if "lane" in ev and not isinstance(ev["lane"], int):
            raise ValueError("trace report: events[].lane must be int")
        if "values" in ev:
            for v in need(ev, "values", list, "events[]"):
                if v not in _LOGIC_NAMES:
                    raise ValueError(
                        f"trace report: bad conflict value {v!r}"
                    )

    if "explanation" in report:
        expl = need(report, "explanation", dict, "report")
        target = need(expl, "target", dict, "explanation")
        need(target, "path", str, "explanation.target")
        need(target, "cycle", int, "explanation.target")
        need(target, "value", str, "explanation.target")
        need(expl, "engine", str, "explanation")
        need(expl, "node_count", int, "explanation")
        need(expl, "truncated", bool, "explanation")

        def check_node(node: dict, where: str) -> None:
            need(node, "net", str, where)
            need(node, "cycle", int, where)
            need(node, "value", str, where)
            need(node, "reason", str, where)
            for child in node.get("children", []):
                check_node(child, where + ".children[]")

        for node in need(expl, "tree", list, "explanation"):
            check_node(node, "explanation.tree[]")
