"""Lint reporting: the ``zeus.lint/1`` schema, text and SARIF renderers.

Like ``zeus.metrics/1`` (:mod:`repro.obs.export`), the JSON shape is
versioned; ``_LINT`` below is its shape table (:mod:`repro.obs.schema`),
checked by :func:`validate_lint_report`:

.. code-block:: none

    {
      "schema": "zeus.lint/1",
      "design": {"name", "nets", "gates", "connections", "registers"},
      "summary": {"findings", "errors", "warnings", "notes",
                  "suppressed", "by_rule": {rule: count}},
      "prover": {                        # omitted when the pass is off
        "nets_analyzed", "proved_exclusive", "proved_conflicting",
        "unknown",
        "nets": [{"net", "drivers", "verdict",
                  "pairs": [{"a","b","verdict","reason","witness"?}]}]
      },
      "findings": [{"rule", "code", "severity", "message", "net",
                    "line", "column", "suppressed"}]
    }

A finding's ``code`` is ``""`` for a rule without one, and its ``net``
is ``""`` for a design-wide finding.

Counts in ``summary`` exclude suppressed findings; the ``findings`` list
includes them (flagged) so consumers can audit suppressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.errors import Severity
from ..lang.source import SourceText
from ..obs.schema import (
    DESIGN,
    OneOf,
    design_block,
    json_text,
    sarif_log,
    validate,
)
from .model import RULES, Finding, LintConfig
from .prover import ProverResult

SCHEMA = "zeus.lint/1"

_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning",
           Severity.NOTE: "note"}


@dataclass
class LintReport:
    """The result of one full lint run."""

    design_name: str
    stats: dict
    findings: list[Finding] = field(default_factory=list)
    prover: ProverResult | None = None
    config: LintConfig = field(default_factory=LintConfig)
    source: SourceText | None = None

    # -- counting ------------------------------------------------------------

    def _count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings
                   if f.severity is severity and not f.suppressed)

    @property
    def errors(self) -> int:
        return self._count(Severity.ERROR)

    @property
    def warnings(self) -> int:
        return self._count(Severity.WARNING)

    @property
    def notes(self) -> int:
        return self._count(Severity.NOTE)

    @property
    def suppressed(self) -> int:
        return sum(1 for f in self.findings if f.suppressed)

    def by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            if not f.suppressed:
                out[f.rule] = out.get(f.rule, 0) + 1
        return out

    def exit_code(self, werror: bool | None = None) -> int:
        """The ``zeusc`` exit-code contract: 0 clean, 1 warnings under
        ``--werror``, 2 errors."""
        if werror is None:
            werror = self.config.werror
        if self.errors:
            return 2
        if werror and self.warnings:
            return 1
        return 0

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        findings = []
        for f in self.findings:
            line = column = 0
            if self.source is not None and f.span.length:
                pos = self.source.position(f.span.start)
                line, column = pos.line, pos.column
            findings.append({
                "rule": f.rule,
                "code": f.code,
                "severity": _LEVELS[f.severity],
                "message": f.message,
                "net": f.net,
                "line": line,
                "column": column,
                "suppressed": f.suppressed,
            })
        report = {
            "schema": SCHEMA,
            "design": design_block(self.design_name, self.stats),
            "summary": {
                "findings": len(self.findings) - self.suppressed,
                "errors": self.errors,
                "warnings": self.warnings,
                "notes": self.notes,
                "suppressed": self.suppressed,
                "by_rule": self.by_rule(),
            },
            "findings": findings,
        }
        if self.prover is not None:
            report["prover"] = self.prover.to_dict()
        return report

    # -- renderers -----------------------------------------------------------

    def render_text(self, *, show_suppressed: bool = False) -> str:
        lines = []
        for f in self.findings:
            if f.suppressed and not show_suppressed:
                continue
            head = f"{_LEVELS[f.severity]}: [{f.rule}] {f.message}"
            if f.suppressed:
                head = f"(suppressed) {head}"
            if self.source is not None and f.span.length:
                pos = self.source.position(f.span.start)
                head = (f"{self.source.name}:{pos}: {head}\n"
                        f"{self.source.caret_diagram(f.span)}")
            lines.append(head)
        summary = (f"{self.design_name}: {self.errors} error(s), "
                   f"{self.warnings} warning(s), {self.notes} note(s)")
        if self.suppressed:
            summary += f", {self.suppressed} suppressed"
        if self.prover is not None:
            summary += (f"; prover: {self.prover.proved_exclusive} exclusive, "
                        f"{self.prover.proved_conflicting} conflicting, "
                        f"{self.prover.unknown} unknown "
                        f"of {len(self.prover.nets)} multi-driver net(s)")
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        report = self.to_dict()
        validate_lint_report(report)
        return json_text(report)

    def render_sarif(self) -> str:
        """Minimal SARIF 2.1.0: one run, one rule per registered rule,
        one result per non-suppressed finding."""
        used = {f.rule for f in self.findings}
        rules = [
            {
                "id": RULES[name].code,
                "name": name,
                "shortDescription": {"text": RULES[name].summary},
            }
            for name in sorted(used) if name in RULES
        ]
        results = []
        for f in self.findings:
            if f.suppressed:
                continue
            result: dict = {
                "ruleId": f.code or f.rule,
                "level": _LEVELS[f.severity],
                "message": {"text": f.message},
            }
            if self.source is not None and f.span.length:
                pos = self.source.position(f.span.start)
                result["locations"] = [{
                    "physicalLocation": {
                        "artifactLocation": {"uri": self.source.name},
                        "region": {"startLine": pos.line,
                                   "startColumn": pos.column},
                    }
                }]
            results.append(result)
        return sarif_log("zeuslint", rules, results)


def write_lint_report(path: str, report: "LintReport") -> None:
    """Validate and write a report as ``zeus.lint/1`` JSON."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(report.render_json())


#: The ``zeus.lint/1`` shape.
_LINT = {
    "design": DESIGN,
    "summary": {"findings": int, "errors": int, "warnings": int,
                "notes": int, "suppressed": int, "by_rule": {str: int}},
    "findings": [{
        "rule": str,
        "code": str,
        "severity": OneOf("severity", *_LEVELS.values()),
        "message": str,
        "net": str,
        "line": int,
        "column": int,
        "suppressed": bool,
    }],
    "prover?": {
        "nets_analyzed": int, "proved_exclusive": int,
        "proved_conflicting": int, "unknown": int,
        "nets": [{
            "net": str,
            "drivers": int,
            "verdict": OneOf("prover verdict", "exclusive", "conflicting",
                             "unknown"),
            "pairs": [{"a": int, "b": int, "verdict": str, "reason": str}],
        }],
    },
}


def validate_lint_report(report: dict) -> None:
    """Raise ``ValueError`` unless *report* conforms to ``zeus.lint/1``."""
    validate("lint", SCHEMA, report, _LINT)
