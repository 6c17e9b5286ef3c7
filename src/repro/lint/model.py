"""Data model of the ``zeuslint`` static-analysis framework.

A *rule* is something the linter can complain about (stable kebab-case
name plus a ``ZLxxx`` code); a *finding* is one concrete complaint,
anchored to a net and a source span; a *config* carries the per-rule
severity overrides and the numeric thresholds/budgets the passes and the
driver-exclusivity prover consume.

Severities reuse :class:`repro.lang.errors.Severity` so findings convert
losslessly into ordinary compiler diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.errors import Diagnostic, Severity
from ..lang.source import NO_SPAN, Span


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, default severity, one-line summary."""

    name: str  # stable kebab-case id, e.g. "driver-conflict"
    code: str  # short stable code, e.g. "ZL001"
    default_severity: Severity
    summary: str
    paper: str = ""  # paper section / type-rule table the rule enforces

    def __str__(self) -> str:
        return f"{self.code} {self.name}"


#: All registered rules by name (populated by :mod:`repro.lint.passes`).
RULES: dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    if rule.name in RULES:
        raise ValueError(f"duplicate lint rule {rule.name!r}")
    RULES[rule.name] = rule
    return rule


@dataclass
class Finding:
    """One concrete lint complaint."""

    rule: str
    severity: Severity
    message: str
    span: Span = NO_SPAN
    net: str = ""  # display name of the anchor net, "" when design-wide
    data: dict = field(default_factory=dict)  # rule-specific extras
    suppressed: bool = False

    @property
    def code(self) -> str:
        rule = RULES.get(self.rule)
        return rule.code if rule else ""

    def to_diagnostic(self) -> Diagnostic:
        return Diagnostic(self.severity, f"[{self.rule}] {self.message}",
                          self.span, phase="lint")


_SEVERITY_NAMES = {
    "error": Severity.ERROR,
    "warning": Severity.WARNING,
    "note": Severity.NOTE,
}

#: Sentinel severity-name disabling a rule entirely.
OFF = "off"


@dataclass
class LintConfig:
    """Per-run lint configuration.

    ``severity`` maps rule name -> ``"error" | "warning" | "note" |
    "off"`` and overrides each rule's default.  The special key ``"all"``
    sets a baseline for every rule (explicit per-rule entries win).
    """

    severity: dict[str, str] = field(default_factory=dict)
    #: warn when a net drives more than this many consumers.
    max_fanout: int = 64
    #: warn when the combinational depth exceeds this many unit delays.
    max_depth: int = 128
    #: prover: largest guard-pair support (distinct cone variables) the
    #: prover asks the solver about; a larger pair is reported UNKNOWN
    #: and left to the runtime check.  The cap was sized for a search
    #: that enumerated all 2^n assignments; the conflict-bounded solver
    #: can decide larger pairs, but lifting the cap changes verdicts.
    prover_max_support: int = 16
    #: prover: solver conflict budget per driver pair.
    prover_budget: int = 20_000
    #: prover: most driver pairs examined per net (the rest go UNKNOWN).
    prover_max_pairs: int = 512
    #: treat warnings as errors for the exit-code contract.
    werror: bool = False

    def set_severity(self, rule: str, severity: str) -> None:
        if severity not in _SEVERITY_NAMES and severity != OFF:
            raise ValueError(f"unknown severity {severity!r}")
        if rule != "all" and rule not in RULES:
            raise ValueError(f"unknown lint rule {rule!r}")
        self.severity[rule] = severity

    def effective_severity(self, rule: Rule) -> Severity | None:
        """The severity findings of *rule* get, or None when disabled."""
        name = self.severity.get(rule.name, self.severity.get("all"))
        if name is None:
            return rule.default_severity
        if name == OFF:
            return None
        return _SEVERITY_NAMES[name]
