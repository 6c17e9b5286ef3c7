"""Proof reporting: the versioned ``zeus.proof/1`` schema.

Like ``zeus.lint/1`` and ``zeus.metrics/1``, the JSON shape is versioned
and :func:`validate_proof_report` is its executable definition:

.. code-block:: none

    {
      "schema": "zeus.proof/1",
      "mode": "prove" | "equiv",
      "designs": [{"name", "nets", "gates", "connections",
                   "registers"}],
      "config": {"depth", "budget", "induction"},
      "solver": {"clauses",          # interned expression nodes
                 "decisions",        # CDCL branch decisions
                 "nodes",            # CDCL conflicts (the budget's unit)
                 "sat_calls", "budget_exhausted", "depth_reached"},
      "verdict": "proved" | "counterexample" | "unknown",
      "results": [{
        "property", "verdict", "method", "depth_checked", "reason",
        "k"?,                          # k-induction proofs only
        "counterexample"?: {
          "cycle",
          "frames": [{poke path: [bits, LSB first]}, ...],
          "replay": {"confirmed", "detail"}
        }
      }]
    }

``solver.clauses`` counts distinct interned expression nodes — the
structural-sharing measure of the encoding's size (each solver of the
run encodes a node once).  ``solver.nodes``
counts CDCL conflicts, the unit ``config.budget`` bounds per question;
``solver.decisions`` counts branch decisions.  Every counterexample carries a full primary-input stimulus
(``frames[t]`` is poked before cycle ``t``) and the outcome of
re-running it through the levelized simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .solver import SolverStats

SCHEMA = "zeus.proof/1"

#: Worst-first verdict order for aggregation.
_VERDICT_RANK = {"counterexample": 0, "unknown": 1, "proved": 2}


@dataclass
class Counterexample:
    """A refutation as a replayable primary-input stimulus."""

    cycle: int
    #: per-frame pokes: poke path -> bit list (LSB first, port order).
    frames: list[dict[str, list[int]]]
    replay_confirmed: bool = False
    replay_detail: str = ""

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "frames": [dict(f) for f in self.frames],
            "replay": {"confirmed": self.replay_confirmed,
                       "detail": self.replay_detail},
        }


@dataclass
class PropertyResult:
    """Verdict for one property (or one equivalence miter)."""

    prop: str
    verdict: str  # "proved" | "counterexample" | "unknown"
    method: str = ""  # "combinational" | "bmc" | "k-induction" | ""
    depth_checked: int = -1
    k: int | None = None
    reason: str = ""
    counterexample: Counterexample | None = None

    def to_dict(self) -> dict:
        d = {
            "property": self.prop,
            "verdict": self.verdict,
            "method": self.method,
            "depth_checked": self.depth_checked,
            "reason": self.reason,
        }
        if self.k is not None:
            d["k"] = self.k
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample.to_dict()
        return d


@dataclass
class ProofReport:
    """The result of one ``zeusc prove`` / ``zeusc equiv`` run."""

    mode: str  # "prove" | "equiv"
    designs: list[tuple[str, dict]]  # (name, netlist stats)
    config: dict  # {"depth", "budget", "induction"}
    results: list[PropertyResult] = field(default_factory=list)
    stats: SolverStats = field(default_factory=SolverStats)
    clauses: int = 0

    @property
    def verdict(self) -> str:
        """Worst verdict over all results ("proved" when empty)."""
        return min((r.verdict for r in self.results),
                   key=_VERDICT_RANK.__getitem__, default="proved")

    @property
    def depth_reached(self) -> int:
        return max((r.depth_checked for r in self.results), default=-1)

    @property
    def proved(self) -> int:
        return sum(1 for r in self.results if r.verdict == "proved")

    @property
    def refuted(self) -> int:
        return sum(1 for r in self.results
                   if r.verdict == "counterexample")

    @property
    def unknown(self) -> int:
        return sum(1 for r in self.results if r.verdict == "unknown")

    def exit_code(self, werror: bool = False) -> int:
        """The ``zeusc`` exit-code contract: 2 on any refutation, 1 on
        any UNKNOWN under ``--werror``, else 0."""
        if self.refuted:
            return 2
        if werror and self.unknown:
            return 1
        return 0

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "mode": self.mode,
            "designs": [
                {
                    "name": name,
                    "nets": stats.get("nets", 0),
                    "gates": stats.get("gates", 0),
                    "connections": stats.get("connections", 0),
                    "registers": stats.get("registers", 0),
                }
                for name, stats in self.designs
            ],
            "config": dict(self.config),
            "solver": {
                "clauses": self.clauses,
                "decisions": self.stats.decisions,
                "nodes": self.stats.nodes,
                "sat_calls": self.stats.sat_calls,
                "budget_exhausted": self.stats.budget_exhausted,
                "depth_reached": self.depth_reached,
            },
            "verdict": self.verdict,
            "results": [r.to_dict() for r in self.results],
        }

    # -- renderers -----------------------------------------------------------

    def _verdict_label(self, verdict: str) -> str:
        if self.mode == "equiv" and verdict == "proved":
            return "PROVED-EQUIVALENT"
        return {"proved": "PROVED", "counterexample": "COUNTEREXAMPLE",
                "unknown": "UNKNOWN"}[verdict]

    def render_text(self) -> str:
        names = " ~ ".join(name for name, _ in self.designs)
        lines = [f"{self.mode} {names} "
                 f"(depth {self.config.get('depth')}, "
                 f"budget {self.config.get('budget')})"]
        for r in self.results:
            head = f"{r.prop:<24} {self._verdict_label(r.verdict)}"
            if r.verdict == "proved":
                how = r.method
                if r.k is not None:
                    how += f", k={r.k}"
                head += f"  ({how})"
            elif r.verdict == "counterexample" and r.counterexample:
                cex = r.counterexample
                status = ("confirmed" if cex.replay_confirmed
                          else "NOT confirmed")
                head += f"  at cycle {cex.cycle} (replay: {status})"
            elif r.reason:
                head += f"  ({r.reason})"
            lines.append(head)
            if r.verdict == "counterexample" and r.counterexample:
                for t, frame in enumerate(r.counterexample.frames):
                    pokes = " ".join(
                        f"{path}={''.join(str(b) for b in bits)}"
                        for path, bits in sorted(frame.items()))
                    lines.append(f"    cycle {t}: {pokes}")
                if r.counterexample.replay_detail:
                    lines.append(
                        f"    replay: {r.counterexample.replay_detail}")
        lines.append(
            f"summary: {len(self.results)} propert"
            f"{'y' if len(self.results) == 1 else 'ies'}: "
            f"{self.proved} proved, {self.refuted} refuted, "
            f"{self.unknown} unknown; solver: {self.clauses} clauses, "
            f"{self.stats.decisions} decisions, "
            f"depth {max(self.depth_reached, 0)}")
        return "\n".join(lines)

    def render_json(self) -> str:
        report = self.to_dict()
        validate_proof_report(report)
        return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_proof_report(path: str, report: "ProofReport") -> None:
    """Validate and write a report as ``zeus.proof/1`` JSON."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(report.render_json())


def validate_proof_report(report: dict) -> None:
    """Raise ``ValueError`` unless *report* conforms to ``zeus.proof/1``."""

    def need(obj: dict, key: str, types, where: str):
        if key not in obj:
            raise ValueError(f"proof report: missing {where}.{key}")
        if not isinstance(obj[key], types):
            raise ValueError(
                f"proof report: {where}.{key} must be {types}, "
                f"got {type(obj[key]).__name__}")
        return obj[key]

    if not isinstance(report, dict):
        raise ValueError("proof report must be a dict")
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"proof report: schema must be {SCHEMA!r}, "
            f"got {report.get('schema')!r}")
    if report.get("mode") not in ("prove", "equiv"):
        raise ValueError(
            f"proof report: bad mode {report.get('mode')!r}")
    designs = need(report, "designs", list, "report")
    if not designs:
        raise ValueError("proof report: designs must be non-empty")
    for d in designs:
        need(d, "name", str, "designs[]")
        for key in ("nets", "gates", "connections", "registers"):
            need(d, key, int, "designs[]")

    config = need(report, "config", dict, "report")
    need(config, "depth", int, "config")
    need(config, "budget", int, "config")
    need(config, "induction", bool, "config")

    solver = need(report, "solver", dict, "report")
    for key in ("clauses", "decisions", "nodes", "sat_calls",
                "depth_reached"):
        need(solver, key, int, "solver")
    need(solver, "budget_exhausted", bool, "solver")

    verdict = need(report, "verdict", str, "report")
    if verdict not in ("proved", "counterexample", "unknown"):
        raise ValueError(f"proof report: bad verdict {verdict!r}")

    for r in need(report, "results", list, "report"):
        need(r, "property", str, "results[]")
        v = need(r, "verdict", str, "results[]")
        if v not in ("proved", "counterexample", "unknown"):
            raise ValueError(f"proof report: bad result verdict {v!r}")
        need(r, "method", str, "results[]")
        need(r, "depth_checked", int, "results[]")
        need(r, "reason", str, "results[]")
        if "k" in r and not isinstance(r["k"], int):
            raise ValueError("proof report: results[].k must be int")
        if v == "counterexample":
            cex = need(r, "counterexample", dict, "results[]")
            need(cex, "cycle", int, "results[].counterexample")
            frames = need(cex, "frames", list, "results[].counterexample")
            for frame in frames:
                if not isinstance(frame, dict):
                    raise ValueError(
                        "proof report: counterexample frames must be dicts")
                for path, bits in frame.items():
                    if not isinstance(bits, list) or not all(
                            b in (0, 1) for b in bits):
                        raise ValueError(
                            f"proof report: frame[{path!r}] must be a "
                            "0/1 bit list")
            replay = need(cex, "replay", dict, "results[].counterexample")
            need(replay, "confirmed", bool, "replay")
            need(replay, "detail", str, "replay")
