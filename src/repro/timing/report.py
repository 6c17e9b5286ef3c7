"""Timing reporting: the versioned ``zeus.timing/1`` schema.

Like ``zeus.lint/1`` and ``zeus.proof/1``, the JSON shape is versioned;
``_TIMING`` below is its shape table (:mod:`repro.obs.schema`), checked
by :func:`validate_timing_report`:

.. code-block:: none

    {
      "schema": "zeus.timing/1",
      "design": {"name", "nets", "gates", "connections", "registers"},
      "model": {"name", "wire_factor"},
      "clock": number | null,          # --clock constraint, if any
      "summary": {
        "worst_arrival",               # raw max arrival (logic depth
                                       #   under the unit model)
        "min_clock_period",            # worst *true* register-endpoint
                                       #   path delay (null: no regs)
        "min_clock_exact",             # false when enumeration stopped
                                       #   before confirming the bound
        "worst_slack",                 # min over reported true paths
        "startpoints", "endpoints",
        "paths_reported", "paths_pruned", "paths_examined",
        "violations",                  # true paths slower than clock
        "cycle"?: [net names]          # combinational cycle: no STA
      },
      "solver": {"sat_calls", "decisions", "nodes",
                 "budget_exhausted"},
      "paths": [{                      # k worst true paths, worst first
        "startpoint", "endpoint", "kind",   # "in2reg", "reg2out", ...
        "delay", "slack",              # slack null without --clock
        "sensitization",   # "confirmed" | "assumed" |
                           #   "witness-unreplayed"
        "reason",
        "witness"?: {input name: bit},
        "replay"?: {"confirmed", "detail"},
        "nets": [{"net", "arrival", "through"}]   # source first
      }],
      "pruned": [{                     # SAT-proved false paths
        "startpoint", "endpoint", "kind", "delay", "reason"
      }]
    }

``paths[].nets[].through`` names the arc into that net (``gate AND``,
``drive``, ``guard``); the first entry's ``through`` is ``"start"``.
SARIF output follows the lint shape with one synthetic rule,
``timing-violation`` (ZT001), one result per violating true path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..formal.solver import SolverStats
from ..obs.schema import (
    DESIGN,
    NUM,
    OPT_NUM,
    OneOf,
    design_block,
    json_text,
    sarif_log,
    validate,
)

SCHEMA = "zeus.timing/1"

#: SARIF rule for clock violations.
VIOLATION_CODE = "ZT001"


@dataclass
class TimingReport:
    """The result of one ``zeusc timing`` run."""

    design: str
    stats: dict  # netlist.stats()
    model_name: str
    wire_factor: float
    clock: object = None  # number | None
    worst_arrival: object = 0
    min_clock_period: object = None
    min_clock_exact: bool = True
    startpoints: int = 0
    endpoints: int = 0
    paths_examined: int = 0
    cycle: list | None = None  # net names when combinational cycle
    paths: list = field(default_factory=list)  # path dicts, worst first
    pruned: list = field(default_factory=list)  # pruned path dicts
    solver: SolverStats = field(default_factory=SolverStats)

    @property
    def violations(self) -> list:
        if self.clock is None:
            return []
        return [p for p in self.paths if p["delay"] > self.clock]

    @property
    def worst_slack(self):
        slacks = [p["slack"] for p in self.paths if p["slack"] is not None]
        return min(slacks, default=None)

    def exit_code(self) -> int:
        """The ``zeusc`` contract: 1 when a true path violates the
        clock constraint, else 0 (2 is the loader's, not ours)."""
        return 1 if self.violations else 0

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        summary = {
            "worst_arrival": self.worst_arrival,
            "min_clock_period": self.min_clock_period,
            "min_clock_exact": self.min_clock_exact,
            "worst_slack": self.worst_slack,
            "startpoints": self.startpoints,
            "endpoints": self.endpoints,
            "paths_reported": len(self.paths),
            "paths_pruned": len(self.pruned),
            "paths_examined": self.paths_examined,
            "violations": len(self.violations),
        }
        if self.cycle is not None:
            summary["cycle"] = list(self.cycle)
        return {
            "schema": SCHEMA,
            "design": design_block(self.design, self.stats),
            "model": {"name": self.model_name,
                      "wire_factor": self.wire_factor},
            "clock": self.clock,
            "summary": summary,
            "solver": {
                "sat_calls": self.solver.sat_calls,
                "decisions": self.solver.decisions,
                "nodes": self.solver.nodes,
                "budget_exhausted": self.solver.budget_exhausted,
            },
            "paths": [dict(p) for p in self.paths],
            "pruned": [dict(p) for p in self.pruned],
        }

    # -- renderers -----------------------------------------------------------

    @staticmethod
    def _num(x) -> str:
        if x is None:
            return "-"
        if isinstance(x, float):
            return f"{x:g}"
        return str(x)

    def render_text(self) -> str:
        n = self._num
        lines = [
            f"timing {self.design} (model {self.model_name}): "
            f"{self.stats.get('gates', 0)} gates, "
            f"{self.stats.get('registers', 0)} registers, "
            f"{self.startpoints} startpoints, "
            f"{self.endpoints} endpoints"]
        if self.cycle is not None:
            lines.append(
                "combinational cycle — no timing analysis possible:")
            lines.append("  " + " -> ".join(self.cycle))
            return "\n".join(lines)
        lines.append(
            f"worst arrival {n(self.worst_arrival)}"
            + (f", min clock period {n(self.min_clock_period)}"
               f"{'' if self.min_clock_exact else ' (bound, not confirmed)'}"
               if self.min_clock_period is not None
               else ", no register endpoints")
            + (f", clock constraint {n(self.clock)}"
               if self.clock is not None else ""))
        for rank, p in enumerate(self.paths, 1):
            mark = ""
            if self.clock is not None and p["delay"] > self.clock:
                mark = "  VIOLATED"
            slack = (f", slack {n(p['slack'])}"
                     if p["slack"] is not None else "")
            lines.append(
                f"path #{rank} [{p['kind']}] delay {n(p['delay'])}"
                f"{slack}  ({p['sensitization']}){mark}")
            for hop in p["nets"]:
                lines.append(
                    f"    {n(hop['arrival']):>6}  {hop['net']}"
                    + (f"  <- {hop['through']}"
                       if hop["through"] != "start" else "  (startpoint)"))
            if p.get("witness"):
                pokes = " ".join(f"{k}={v}"
                                 for k, v in sorted(p["witness"].items()))
                lines.append(f"    witness: {pokes}")
            if p["reason"]:
                lines.append(f"    {p['reason']}")
        for p in self.pruned:
            lines.append(
                f"pruned [{p['kind']}] delay {n(p['delay'])}  "
                f"{p['startpoint']} -> {p['endpoint']}: {p['reason']}")
        vio = len(self.violations)
        lines.append(
            f"summary: {len(self.paths)} true path"
            f"{'' if len(self.paths) == 1 else 's'} reported, "
            f"{len(self.pruned)} pruned as false, "
            f"{self.paths_examined} examined; "
            f"solver: {self.solver.sat_calls} calls, "
            f"{self.solver.decisions} decisions"
            + (f"; {vio} VIOLATION{'' if vio == 1 else 'S'} of clock "
               f"{n(self.clock)}" if self.clock is not None and vio else ""))
        return "\n".join(lines)

    def render_json(self) -> str:
        report = self.to_dict()
        validate_timing_report(report)
        return json_text(report)

    def render_sarif(self) -> str:
        """Minimal SARIF 2.1.0, lint-shaped: one rule
        (``timing-violation``), one result per true path slower than
        the clock constraint (no constraint -> no results)."""
        results = []
        for p in self.violations:
            results.append({
                "ruleId": VIOLATION_CODE,
                "level": "error",
                "message": {"text": (
                    f"{p['kind']} path {p['startpoint']} -> "
                    f"{p['endpoint']} takes {self._num(p['delay'])} "
                    f"(clock {self._num(self.clock)}, "
                    f"sensitization {p['sensitization']})")},
            })
        rule = {
            "id": VIOLATION_CODE,
            "name": "timing-violation",
            "shortDescription": {"text": (
                "a sensitizable path exceeds the clock constraint")},
        }
        return sarif_log("zeustime", [rule], results)


def write_timing_report(path: str, report: "TimingReport") -> None:
    """Validate and write a report as ``zeus.timing/1`` JSON."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(report.render_json())


#: The ``zeus.timing/1`` shape.
_TIMING = {
    "design": DESIGN,
    "model": {"name": str, "wire_factor": NUM},
    "clock": OPT_NUM,
    "summary": {
        "worst_arrival": NUM,
        "min_clock_period": OPT_NUM,
        "min_clock_exact": bool,
        "worst_slack": OPT_NUM,
        "startpoints": int, "endpoints": int, "paths_reported": int,
        "paths_pruned": int, "paths_examined": int, "violations": int,
        "cycle?": [str],
    },
    "solver": {"sat_calls": int, "decisions": int, "nodes": int,
               "budget_exhausted": bool},
    "paths": [{
        "startpoint": str,
        "endpoint": str,
        "kind": str,
        "delay": NUM,
        "slack": OPT_NUM,
        "sensitization": OneOf("sensitization", "confirmed", "assumed",
                               "witness-unreplayed"),
        "reason": str,
        "witness?": dict,
        "replay?": {"confirmed": bool, "detail": str},
        "nets": [{"net": str, "arrival": NUM, "through": str}],
    }],
    "pruned": [{"startpoint": str, "endpoint": str, "kind": str,
                "delay": NUM, "reason": str}],
}


def validate_timing_report(report: dict) -> None:
    """Raise ``ValueError`` unless *report* conforms to
    ``zeus.timing/1``."""
    validate("timing", SCHEMA, report, _TIMING)
    for p in report["paths"]:
        if not all(isinstance(k, str) and v in (0, 1)
                   for k, v in p.get("witness", {}).items()):
            raise ValueError(
                "timing report: paths[].witness must map input "
                "names to 0/1 bits")
        if not p["nets"]:
            raise ValueError("timing report: paths[].nets is empty")
    summary = report["summary"]
    if summary["paths_reported"] != len(report["paths"]):
        raise ValueError(
            "timing report: summary.paths_reported disagrees with paths")
    if summary["paths_pruned"] != len(report["pruned"]):
        raise ValueError(
            "timing report: summary.paths_pruned disagrees with pruned")
