"""zeuslint tests: the driver-exclusivity prover (differential against
the simulator's runtime multi-assignment check), the structural passes,
suppression comments, the zeus.lint/1 report schema, and the CLI."""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.lang.errors import Severity
from repro.lint import (
    LintConfig,
    RULES,
    run_lint,
    validate_lint_report,
)
from repro.lint.suppress import parse_suppressions


def compile_lenient(text, name="t"):
    return repro.compile_text(text, name=name, strict=False)


def lint_of(text, config=None, name="t"):
    return run_lint(compile_lenient(text, name), config)


def rules_of(report):
    return {f.rule for f in report.findings if not f.suppressed}


def conflict_program(n_guards):
    """The fuzz suite's deliberately conflicting shape (see
    test_fuzz.test_lenient_mode_never_crashes_on_conflicts)."""
    ins = ", ".join(f"g{k}" for k in range(n_guards))
    stmts = "\n".join(
        f"    IF g{k} THEN z := {k % 2} END;" for k in range(n_guards)
    )
    return f"""
TYPE t = COMPONENT (IN {ins}: boolean; OUT y: boolean; z: multiplex) IS
BEGIN
{stmts}
    y := g0
END;
SIGNAL u: t;
"""


EXCLUSIVE_NOT = """
TYPE t = COMPONENT (IN s: boolean; OUT y: boolean; z: multiplex) IS
BEGIN
    IF s THEN z := 1 END;
    IF NOT s THEN z := 0 END;
    y := s
END;
SIGNAL u: t;
"""


class TestProverVerdicts:
    def test_complementary_guards_proved_exclusive(self):
        report = lint_of(EXCLUSIVE_NOT)
        assert report.prover.proved_exclusive == 1
        assert report.prover.proved_conflicting == 0
        assert report.prover.unknown == 0
        assert report.errors == 0

    def test_one_hot_decode_proved_exclusive(self):
        circuit = repro.compile_text(
            repro.stdlib.programs.ALL_PROGRAMS["mux4"],
            name="mux4", strict=False)
        report = run_lint(circuit)
        assert report.prover.proved_conflicting == 0
        assert report.prover.unknown == 0
        assert report.prover.proved_exclusive >= 1

    def test_independent_guards_proved_conflicting(self):
        report = lint_of(conflict_program(2))
        assert report.prover.proved_conflicting == 1
        assert "driver-conflict" in rules_of(report)
        assert report.exit_code() == 2

    def test_conflict_witness_is_over_inputs(self):
        report = lint_of(conflict_program(2))
        finding = next(f for f in report.findings
                       if f.rule == "driver-conflict")
        witness = finding.data["witness"]
        assert witness  # non-empty, named input assignment
        assert all(k.startswith("u.g") for k in witness)

    def test_overlapping_and_guards_conflict(self):
        # Guards AND(a, b) vs a: both 1 when a=b=1.
        report = lint_of("""
TYPE t = COMPONENT (IN a, b: boolean; OUT y: boolean; z: multiplex) IS
BEGIN
    IF AND(a, b) THEN z := 1 END;
    IF a THEN z := 0 END;
    y := a
END;
SIGNAL u: t;
""")
        assert report.prover.proved_conflicting == 1

    def test_disjoint_and_guards_exclusive(self):
        # AND(a, b) vs AND(a, NOT b): needs the case split, not just literals.
        report = lint_of("""
TYPE t = COMPONENT (IN a, b: boolean; OUT y: boolean; z: multiplex) IS
BEGIN
    IF AND(a, b) THEN z := 1 END;
    IF AND(a, NOT b) THEN z := 0 END;
    y := a
END;
SIGNAL u: t;
""")
        assert report.prover.proved_exclusive == 1
        assert report.prover.proved_conflicting == 0

    def test_exhausted_budget_reports_unknown(self):
        # XOR(a, b, c, d) and XOR(d, c, b, NOT a) are complements: the
        # guards are exclusive, but only search (several conflicts)
        # shows it.
        text = """
TYPE t = COMPONENT (IN a, b, c, d: boolean; OUT y: boolean; z: multiplex) IS
BEGIN
    IF XOR(a, b, c, d) THEN z := 1 END;
    IF XOR(d, c, b, NOT a) THEN z := 0 END;
    y := a
END;
SIGNAL u: t;
"""
        assert lint_of(text).prover.proved_exclusive == 1
        config = LintConfig(prover_budget=1)
        report = lint_of(text, config)
        assert report.prover.unknown == 1
        assert "driver-unproved" in rules_of(report)
        # UNKNOWN is a warning, not an error: runtime stays the oracle.
        assert report.errors == 0

    def test_stdlib_corpus_fully_classified(self):
        """Acceptance: the prover classifies every multi-driver
        multiplex net in the bundled paper programs -- no UNKNOWNs."""
        for name, text in repro.stdlib.programs.ALL_PROGRAMS.items():
            circuit = repro.compile_text(text, name=name, strict=False)
            report = run_lint(circuit)
            assert report.prover.unknown == 0, name
            for net in report.prover.nets:
                assert net.verdict in ("exclusive", "conflicting"), name


class TestProverDifferential:
    """The prover's verdicts must agree with the simulator's runtime
    multi-assignment check (the paper's 'burning transistors' rule)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_runtime_conflicts_are_flagged_statically(self, seed):
        rng = random.Random(seed)
        n_guards = rng.randint(2, 4)
        circuit = compile_lenient(conflict_program(n_guards))
        sim = circuit.simulator(strict=False)
        for vector in range(1 << n_guards):
            for k in range(n_guards):
                sim.poke(f"g{k}", (vector >> k) & 1)
            sim.step()
        assert sim.violations  # the runtime check fires...
        report = run_lint(circuit)
        flagged = rules_of(report) & {"driver-conflict", "driver-unproved"}
        assert flagged  # ...and lint saw it coming
        assert report.prover.proved_conflicting >= 1

    def test_witness_replay_triggers_runtime_violation(self):
        """Acceptance: a PROVED-CONFLICTING witness, poked into the
        simulator, reproduces the runtime violation."""
        for text in (conflict_program(2), conflict_program(4)):
            circuit = compile_lenient(text)
            report = run_lint(circuit)
            finding = next(f for f in report.findings
                           if f.rule == "driver-conflict")
            sim = circuit.simulator(strict=False)
            for key, value in finding.data["witness"].items():
                sim.poke(key, value)
            sim.step()
            assert sim.violations
            assert any(v.net == finding.net for v in sim.violations)

    def test_proved_exclusive_never_violates(self):
        """Acceptance: exhaustive simulation of a PROVED-EXCLUSIVE
        design never trips the runtime check."""
        circuit = compile_lenient(EXCLUSIVE_NOT)
        report = run_lint(circuit)
        assert report.prover.proved_exclusive == 1
        sim = circuit.simulator(strict=True)
        for value in (0, 1):
            sim.poke("s", value)
            sim.step()
        assert not sim.violations

    def test_mux4_proved_exclusive_never_violates(self):
        circuit = repro.compile_text(
            repro.stdlib.programs.ALL_PROGRAMS["mux4"],
            name="mux4", strict=False)
        report = run_lint(circuit)
        assert report.prover.proved_conflicting == 0
        assert report.prover.unknown == 0
        sim = circuit.simulator(strict=True, seed=7)
        inputs = sorted(n.name for n in circuit.netlist.nets
                        if n.is_input and not n.is_output)
        rng = random.Random(7)
        for _ in range(16):
            for name in inputs:
                sim.poke(name, rng.randint(0, 1))
            sim.step()
        assert not sim.violations

    def test_stdlib_witnesses_replay(self):
        """Every PROVED-CONFLICTING verdict on the bundled programs
        comes with a witness that really burns transistors."""
        for name, text in repro.stdlib.programs.ALL_PROGRAMS.items():
            circuit = repro.compile_text(text, name=name, strict=False)
            report = run_lint(circuit)
            for finding in report.findings:
                if finding.rule != "driver-conflict":
                    continue
                sim = circuit.simulator(strict=False)
                for key, value in finding.data["witness"].items():
                    sim.poke(key, value)
                sim.step()
                assert sim.violations, (name, finding.message)


class TestStructuralPasses:
    def test_comb_cycle_reports_path(self):
        report = lint_of("""
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
    SIGNAL p: boolean;
BEGIN
    p := OR(p, a);
    y := p
END;
SIGNAL u: t;
""")
        finding = next(f for f in report.findings if f.rule == "comb-cycle")
        assert finding.severity is Severity.ERROR
        assert "->" in finding.message
        assert "u.p" in finding.data["cycle"]

    def test_write_only_signal(self):
        report = lint_of("""
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
    SIGNAL unused: boolean;
BEGIN
    unused := a;
    y := a
END;
SIGNAL u: t;
""")
        finding = next(f for f in report.findings if f.rule == "write-only")
        assert "u.unused" in finding.message

    def test_write_only_excludes_out_ports(self):
        report = lint_of("""
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
BEGIN
    y := a
END;
SIGNAL u: t;
""")
        assert "write-only" not in rules_of(report)

    def test_checker_delegates_write_only(self):
        """Satellite: zeusc check emits the same write-only warning."""
        circuit = compile_lenient("""
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
    SIGNAL unused: boolean;
BEGIN
    unused := a;
    y := a
END;
SIGNAL u: t;
""")
        messages = [d.message for d in circuit.diagnostics.warnings]
        assert any("assigned but never read" in m for m in messages)

    def test_checker_and_lint_report_write_only_alike(self):
        circuit = compile_lenient("""
TYPE t = COMPONENT (IN a, clk: boolean; OUT y: boolean) IS
    SIGNAL unused, spare: boolean;
    SIGNAL r: REG;
BEGIN
    unused := a;
    spare := NOT a;
    r.in := a;
    y := a
END;
SIGNAL u: t;
""")
        checker = [(d.message, d.span) for d in circuit.diagnostics.warnings
                   if "assigned but never read" in d.message]
        lint = [(f.message, f.span) for f in run_lint(circuit).findings
                if f.rule == "write-only"]
        assert len(checker) == 3
        assert checker == lint

    def test_compile_and_simulate_load_no_prover(self):
        """The checker's write-only warning no longer pulls the lint
        prover and the formal stack into every compile."""
        probe = (
            "import sys, repro\n"
            "from repro.stdlib.programs import BLACKJACK\n"
            "repro.compile_text(BLACKJACK).simulator().step()\n"
            "loaded = [m for m in sys.modules\n"
            "          if m.startswith('repro.formal')\n"
            "          or m == 'repro.lint.prover']\n"
            "assert not loaded, loaded\n"
        )
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                       timeout=120)

    def test_dead_driver_constant_guard(self):
        report = lint_of("""
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean; z: multiplex) IS
BEGIN
    IF AND(a, NOT a) THEN z := 1 END;
    y := a
END;
SIGNAL u: t;
""")
        finding = next(f for f in report.findings if f.rule == "dead-driver")
        assert finding.data["constant"] == 0

    def test_reg_no_reset_and_reset_detection(self):
        noreset = lint_of("""
TYPE t = COMPONENT (IN d, clk: boolean; OUT q: boolean) IS
    SIGNAL r: REG;
BEGIN
    IF clk THEN r.in := d END;
    q := r.out
END;
SIGNAL u: t;
""")
        assert "reg-no-reset" in rules_of(noreset)
        reset = lint_of("""
TYPE t = COMPONENT (IN d, clk, rst: boolean; OUT q: boolean) IS
    SIGNAL r: REG;
BEGIN
    IF rst THEN r.in := 0 END;
    IF AND(clk, NOT rst) THEN r.in := d END;
    q := r.out
END;
SIGNAL u: t;
""")
        assert "reg-no-reset" not in rules_of(reset)

    def test_reg_array_findings_are_grouped(self):
        circuit = repro.compile_text(
            repro.stdlib.programs.ALL_PROGRAMS["memory"],
            name="memory", strict=False)
        report = run_lint(circuit)
        regs = [f for f in report.findings if f.rule == "reg-no-reset"]
        assert len(regs) == 1
        assert regs[0].data["registers"] == 128
        assert "mem.ram[*][*]" in regs[0].message

    def test_undef_reachability_from_unreset_reg(self):
        report = lint_of("""
TYPE t = COMPONENT (IN d, clk: boolean; OUT q: boolean) IS
    SIGNAL r: REG;
BEGIN
    IF clk THEN r.in := d END;
    q := r.out
END;
SIGNAL u: t;
""")
        finding = next(f for f in report.findings
                       if f.rule == "undef-reachability")
        assert finding.data["kind"] == "no reset"
        assert "u.q" in finding.message

    def test_fanout_and_depth_limits(self):
        config = LintConfig(max_fanout=1, max_depth=1)
        report = lint_of("""
TYPE t = COMPONENT (IN a, b: boolean; OUT x, y, z: boolean) IS
BEGIN
    x := NOT AND(a, b);
    y := OR(a, AND(a, b));
    z := a
END;
SIGNAL u: t;
""", config)
        assert "fanout-limit" in rules_of(report)
        assert "logic-depth-limit" in rules_of(report)


class TestConfigAndSuppression:
    def test_unknown_rule_rejected(self):
        config = LintConfig()
        with pytest.raises(ValueError):
            config.set_severity("nosuch", "error")
        with pytest.raises(ValueError):
            config.set_severity("write-only", "loud")

    def test_all_baseline_with_override(self):
        config = LintConfig()
        config.set_severity("all", "off")
        config.set_severity("driver-conflict", "error")
        report = lint_of(conflict_program(2), config)
        assert rules_of(report) == {"driver-conflict"}

    def test_severity_override_relevels(self):
        config = LintConfig()
        config.set_severity("reg-no-reset", "error")
        report = lint_of("""
TYPE t = COMPONENT (IN d, clk: boolean; OUT q: boolean) IS
    SIGNAL r: REG;
BEGIN
    IF clk THEN r.in := d END;
    q := r.out
END;
SIGNAL u: t;
""")
        assert report.errors == 0  # default config: a warning
        report = lint_of("""
TYPE t = COMPONENT (IN d, clk: boolean; OUT q: boolean) IS
    SIGNAL r: REG;
BEGIN
    IF clk THEN r.in := d END;
    q := r.out
END;
SIGNAL u: t;
""", config)
        assert report.errors >= 1
        assert report.exit_code() == 2

    def test_werror_exit_code(self):
        report = lint_of("""
TYPE t = COMPONENT (IN d, clk: boolean; OUT q: boolean) IS
    SIGNAL r: REG;
BEGIN
    IF clk THEN r.in := d END;
    q := r.out
END;
SIGNAL u: t;
""")
        assert report.warnings >= 1
        assert report.exit_code() == 0
        assert report.exit_code(werror=True) == 1

    def test_pragma_suppresses_next_line(self):
        report = lint_of("""
TYPE t = COMPONENT (IN d, clk: boolean; OUT q: boolean) IS
    <* lint: off reg-no-reset *>
    SIGNAL r: REG;
BEGIN
    IF clk THEN r.in := d END;
    q := r.out
END;
SIGNAL u: t;
""")
        assert "reg-no-reset" not in rules_of(report)
        assert report.suppressed == 1
        suppressed = next(f for f in report.findings if f.suppressed)
        assert suppressed.rule == "reg-no-reset"

    def test_pragma_same_line_and_star(self):
        report = lint_of("""
TYPE t = COMPONENT (IN d, clk: boolean; OUT q: boolean) IS
    SIGNAL r: REG; <* lint: off *>
BEGIN
    IF clk THEN r.in := d END;
    q := r.out
END;
SIGNAL u: t;
""")
        assert "reg-no-reset" not in rules_of(report)
        assert report.suppressed == 1

    def test_pragma_other_rule_does_not_suppress(self):
        report = lint_of("""
TYPE t = COMPONENT (IN d, clk: boolean; OUT q: boolean) IS
    <* lint: off write-only *>
    SIGNAL r: REG;
BEGIN
    IF clk THEN r.in := d END;
    q := r.out
END;
SIGNAL u: t;
""")
        assert "reg-no-reset" in rules_of(report)
        assert report.suppressed == 0

    def test_parse_suppressions_rule_lists(self):
        circuit = compile_lenient("""
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
    <* lint: off write-only, reg-no-reset *>
    SIGNAL p: boolean;
BEGIN
    p := a;
    y := a
END;
SIGNAL u: t;
""")
        design = circuit.design
        by_line = parse_suppressions(design.source, design.program.comments)
        assert by_line == {4: {"write-only", "reg-no-reset"}}

    def test_ordinary_comments_are_not_pragmas(self):
        circuit = compile_lenient("""
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
    <* just a note *>
    SIGNAL p: boolean;
BEGIN
    p := a;
    y := a
END;
SIGNAL u: t;
""")
        design = circuit.design
        assert design.program.comments  # the lexer recorded the trivia
        assert parse_suppressions(
            design.source, design.program.comments) == {}


class TestReportSchema:
    def test_json_roundtrip_validates(self):
        report = lint_of(conflict_program(2))
        payload = json.loads(report.render_json())
        validate_lint_report(payload)  # must not raise
        assert payload["schema"] == "zeus.lint/1"
        assert payload["summary"]["errors"] == 1
        assert payload["prover"]["proved_conflicting"] == 1
        finding = payload["findings"][0]
        assert finding["code"] == "ZL001"
        assert finding["line"] > 0

    def test_validator_rejects_bad_reports(self):
        report = lint_of(EXCLUSIVE_NOT).to_dict()
        good = json.loads(json.dumps(report))
        validate_lint_report(good)
        for mutate in (
            lambda r: r.update(schema="zeus.lint/2"),
            lambda r: r.pop("summary"),
            lambda r: r["summary"].update(errors="many"),
            lambda r: r["prover"]["nets"][0].update(verdict="maybe"),
        ):
            bad = json.loads(json.dumps(report))
            mutate(bad)
            with pytest.raises(ValueError):
                validate_lint_report(bad)

    def test_sarif_render(self):
        report = lint_of(conflict_program(2))
        sarif = json.loads(report.render_sarif())
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "zeuslint"
        assert any(res["ruleId"] == "ZL001" for res in run["results"])
        assert all("message" in res for res in run["results"])

    def test_rule_registry_is_stable(self):
        codes = [rule.code for rule in RULES.values()]
        assert len(codes) == len(set(codes))  # codes are unique
        assert {"driver-conflict", "driver-unproved", "comb-cycle",
                "write-only", "dead-driver", "reg-no-reset",
                "undef-reachability", "fanout-limit",
                "logic-depth-limit"} <= set(RULES)


class TestLintCli:
    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_clean_builtin_exits_zero(self, capsys):
        code, out, _ = self.run(["lint", "--builtin", "mux4"], capsys)
        assert code == 0
        assert "1 exclusive" in out

    def test_conflicting_builtin_exits_two(self, capsys):
        code, out, _ = self.run(
            ["lint", "--builtin", "section8", "--lenient"], capsys)
        assert code == 2
        assert "driver-conflict" in out
        assert "burn transistors" in out

    def test_werror_promotes_warnings(self, capsys):
        code, _, _ = self.run(
            ["lint", "--builtin", "memory", "--lenient"], capsys)
        assert code == 0
        code, _, _ = self.run(
            ["lint", "--builtin", "memory", "--lenient", "--werror"], capsys)
        assert code == 1

    def test_disable_rules(self, capsys):
        code, _, _ = self.run(
            ["lint", "--builtin", "section8", "--lenient",
             "--disable", "driver-conflict",
             "--disable", "reg-no-reset",
             "--disable", "undef-reachability"], capsys)
        assert code == 0

    def test_error_promotion(self, capsys):
        code, _, _ = self.run(
            ["lint", "--builtin", "memory", "--lenient",
             "-E", "reg-no-reset"], capsys)
        assert code == 2

    def test_json_format(self, tmp_path, capsys):
        out_file = tmp_path / "lint.json"
        code, _, _ = self.run(
            ["lint", "--builtin", "mux4", "--format", "json",
             "-o", str(out_file)], capsys)
        assert code == 0
        payload = json.loads(out_file.read_text())
        validate_lint_report(payload)

    def test_metrics_includes_lint_section(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        code, _, _ = self.run(
            ["lint", "--builtin", "section8", "--lenient",
             "--metrics", str(metrics)], capsys)
        assert code == 2
        payload = json.loads(metrics.read_text())
        assert payload["lint"]["errors"] == 1
        assert payload["lint"]["prover"]["proved_conflicting"] == 1
        assert "lint" in payload["compile"]["phases"]

    def test_list_rules(self, capsys):
        code, out, _ = self.run(["lint", "--list-rules"], capsys)
        assert code == 0
        assert "ZL001" in out and "driver-conflict" in out

    def test_unknown_rule_exits_two(self, capsys):
        code, _, err = self.run(
            ["lint", "--builtin", "mux4", "-W", "nosuch"], capsys)
        assert code == 2
        assert "unknown lint rule" in err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "syn.zeus"
        bad.write_text("TYPE = ;")
        code, _, err = self.run(["lint", str(bad)], capsys)
        assert code == 2
        assert "error" in err

    def test_check_werror(self, tmp_path, capsys):
        warny = tmp_path / "w.zeus"
        warny.write_text(
            "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS\n"
            "    SIGNAL unused: boolean;\n"
            "BEGIN\n"
            "    unused := a;\n"
            "    y := a\n"
            "END;\n"
            "SIGNAL u: t;\n"
        )
        code, _, _ = self.run(["check", str(warny)], capsys)
        assert code == 0
        code, _, _ = self.run(["check", "--werror", str(warny)], capsys)
        assert code == 1
