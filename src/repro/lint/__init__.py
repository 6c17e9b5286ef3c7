"""``zeuslint`` -- netlist-level static analysis for Zeus designs.

A pass-based framework over the elaborated semantics graph.  The
headline pass is the **driver-exclusivity prover**
(:mod:`repro.lint.prover`): for every net with two or more conditional
drivers it proves, per driver pair, whether both enables can be 1 in the
same cycle -- turning the paper's runtime "burning transistors" check
(sections 5, 8) into a compile-time verdict with a witness.  Around it,
a registry of structural passes (:mod:`repro.lint.passes`) shares one
:class:`~repro.core.view.ClassView` of the semantics graph (exported
here under its lint name, ``LintContext``).

Typical use::

    import repro
    from repro.lint import run_lint

    circuit = repro.compile_text(text, strict=False)
    report = run_lint(circuit)
    print(report.render_text())
    report.exit_code()          # 0 clean / 1 warnings+werror / 2 errors

CLI: ``zeusc lint FILE --format text|json|sarif`` (see
:mod:`repro.cli`); schema: ``zeus.lint/1`` (:mod:`repro.lint.report`).
"""

from __future__ import annotations

from ..core.elaborate import Design
from ..core.view import ClassView as LintContext
from .model import OFF, RULES, Finding, LintConfig, Rule
from .passes import PASSES, driver_exclusivity_pass
from .prover import NetResult, PairVerdict, Prover, ProverResult
from .report import (
    SCHEMA,
    LintReport,
    validate_lint_report,
    write_lint_report,
)
from .suppress import apply_suppressions

__all__ = [
    "Finding",
    "LintConfig",
    "LintContext",
    "LintReport",
    "NetResult",
    "OFF",
    "PairVerdict",
    "PASSES",
    "Prover",
    "ProverResult",
    "RULES",
    "Rule",
    "SCHEMA",
    "run_lint",
    "validate_lint_report",
    "write_lint_report",
]


def run_lint(target, config: LintConfig | None = None) -> LintReport:
    """Run every enabled lint pass over a compiled design.

    *target* is a :class:`repro.Circuit` or a
    :class:`~repro.core.elaborate.Design`.  Per-rule severities, the
    thresholds and the prover budgets come from *config* (defaults:
    :class:`~repro.lint.model.LintConfig`).
    """
    from ..obs.spans import span

    design: Design = getattr(target, "design", target)
    config = config or LintConfig()

    with span("lint", design=design.name):
        ctx = LintContext(design)
        prover = Prover(ctx, config)
        findings: list[Finding] = []
        prover_result: ProverResult | None = None

        # The prover pass runs first and feeds the report's prover section.
        conflict_rule = RULES["driver-conflict"]
        unproved_rule = RULES["driver-unproved"]
        if (config.effective_severity(conflict_rule) is not None
                or config.effective_severity(unproved_rule) is not None):
            out: list[ProverResult] = []
            findings.extend(driver_exclusivity_pass(ctx, config, prover, out))
            prover_result = out[0]

        for _name, pass_fn in PASSES:
            findings.extend(pass_fn(ctx, config, prover))

        # Per-rule severity config: re-level or drop each finding.
        kept: list[Finding] = []
        for finding in findings:
            rule = RULES.get(finding.rule)
            if rule is None:
                kept.append(finding)
                continue
            severity = config.effective_severity(rule)
            if severity is None:
                continue
            finding.severity = severity
            kept.append(finding)

        # Inline suppression comments (lexer trivia).
        comments = getattr(design.program, "comments", [])
        apply_suppressions(kept, design.source, comments)

        report = LintReport(
            design_name=design.name,
            stats=design.netlist.stats(),
            findings=kept,
            prover=prover_result,
            config=config,
            source=design.source,
        )
    return report
