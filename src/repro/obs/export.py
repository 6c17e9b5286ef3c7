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

``_METRICS`` below is the schema's shape table (in the language of
:mod:`repro.obs.schema`); :func:`validate_report` checks it and the
rules a shape cannot state, and the docs, the tests and the CLI all go
through it.

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

``_TRACE`` below is its shape table, checked by
:func:`validate_trace_report`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .schema import (
    DESIGN,
    NUM,
    OPT_NUM,
    OneOf,
    check,
    design_block,
    json_text,
    validate,
)
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
    report: dict = {
        "schema": SCHEMA,
        "design": design_block(circuit.name, circuit.netlist.stats()),
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
        f.write(json_text(report))


#: The ``zeus.metrics/1`` shape; ``design`` is required unless the
#: report describes the service.
_METRICS = {
    "design?": DESIGN,
    "service?": {
        "uptime_s": NUM,
        "requests": {"total": int, "errors": int, "shed": int,
                     "by_endpoint": {str: int}},
        "cache": {"entries": int, "capacity": int, "hits": int,
                  "misses": int, "evictions": int, "hit_rate": NUM},
        "pool": {"workers": int, "queue_depth": int, "max_queue": int,
                 "active": int, "submitted": int, "completed": int,
                 "timeouts": int, "shed": int},
        "sessions": {"open": int,
                     "muxes": [{"design": str, "lanes": int,
                                "occupied": int}]},
    },
    "compile?": {"phases": dict,
                 "self_phases": {str: NUM},
                 "spans": [{"name": str, "path": str, "start": NUM,
                            "duration_s": NUM, "depth": int}]},
    "sim?": {
        "cycles": int, "firings": int, "gate_evals": int,
        "driver_evals": int, "propagation_steps": int, "latches": int,
        "violations": int, "peak_cycle": int, "peak_cycle_firings": int,
        "firings_per_cycle_avg": NUM,
        "engine?": str,
        "firings_by_cycle": list,
        "steps_by_cycle": list,
        "nets": [{"name": str, "toggles": int, "fires": int}],
        "gates": [{"name": str, "evals": int, "fires": int}],
        "batched?": {"lanes": int, "lane_cycles": int, "fast_path": bool},
    },
    "lint?": {
        "errors": int, "warnings": int, "notes": int, "suppressed": int,
        "by_rule": {str: int},
        "prover?": {"nets_analyzed": int, "proved_exclusive": int,
                    "proved_conflicting": int, "unknown": int},
    },
    "formal?": {
        "mode": OneOf("formal.mode", "prove", "equiv"),
        "verdict": OneOf("formal.verdict", "proved", "counterexample",
                         "unknown"),
        "properties": int, "proved": int, "refuted": int, "unknown": int,
        "solver": {"clauses": int, "decisions": int, "nodes": int,
                   "sat_calls": int, "depth_reached": int,
                   "budget_exhausted": bool},
    },
    "timing?": {
        "model": str,
        "worst_arrival": NUM,
        "min_clock_period": OPT_NUM,
        "paths_reported": int, "paths_pruned": int, "violations": int,
        "solver": {"sat_calls": int, "decisions": int, "nodes": int,
                   "budget_exhausted": bool},
    },
    "wall?": {"elapsed_s": NUM, "cycles_per_s": NUM},
}


def validate_report(report: dict) -> None:
    """Raise ``ValueError`` unless *report* conforms to the documented
    ``zeus.metrics/1`` shape."""
    validate("metrics", SCHEMA, report, _METRICS)
    if "design" not in report and "service" not in report:
        raise ValueError("metrics report: missing report.design")
    for name, dur in report.get("compile", {}).get("phases", {}).items():
        if not isinstance(dur, NUM) or dur < 0:
            raise ValueError(
                f"metrics report: compile.phases[{name!r}] must be a "
                f"non-negative number"
            )
    if "sim" in report:
        sim = report["sim"]
        if len(sim["firings_by_cycle"]) != sim["cycles"]:
            raise ValueError(
                "metrics report: sim.firings_by_cycle length must equal "
                "sim.cycles"
            )
        if "batched" in sim and sim["batched"]["lanes"] < 1:
            raise ValueError("metrics report: sim.batched.lanes must be >= 1")


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
        "design": design_block(circuit.name, circuit.netlist.stats()),
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
        f.write(json_text(report))


_OPT_INT = (int, type(None))

#: One node of an explanation tree (its ``children`` are nodes too).
_NODE = {"net": str, "cycle": int, "value": str, "reason": str,
         "children?": list}

#: The ``zeus.trace/1`` shape.
_TRACE = {
    "design": DESIGN,
    "engine": str,
    "lanes": _OPT_INT,
    "window": {"capacity": int, "recorded": int, "dropped": int,
               "first": _OPT_INT, "last": _OPT_INT},
    "events": [{
        "cycle": int,
        "kind": OneOf("event kind", *_EVENT_KINDS),
        "net": str,
        "value": OneOf("event value", *_LOGIC_NAMES),
        "lane?": int,
        "values?": [OneOf("conflict value", *_LOGIC_NAMES)],
    }],
    "explanation?": {
        "target": {"path": str, "cycle": int, "value": str},
        "engine": str,
        "node_count": int,
        "truncated": bool,
        "tree": [_NODE],
    },
}


def validate_trace_report(report: dict) -> None:
    """Raise ``ValueError`` unless *report* conforms to the documented
    ``zeus.trace/1`` shape."""
    validate("trace", TRACE_SCHEMA, report, _TRACE)
    window = report["window"]
    for key in ("capacity", "recorded", "dropped"):
        if window[key] < 0:
            raise ValueError(f"trace report: window.{key} must be >= 0")
    if (window["first"] is None) != (window["recorded"] == 0):
        raise ValueError(
            "trace report: window.first is null exactly when nothing "
            "was recorded"
        )
    cycles = [ev["cycle"] for ev in report["events"]]
    if any(a > b for a, b in zip(cycles, cycles[1:])):
        raise ValueError("trace report: events must be time-ordered")
    # The explanation tree nests to any depth: walk it level by level.
    level = report.get("explanation", {}).get("tree", [])
    path = "explanation.tree[]"
    while level:
        level = [child for node in level
                 for child in node.get("children", ())]
        path += ".children[]"
        for node in level:
            check("trace", node, _NODE, path)
