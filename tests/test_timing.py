"""zeustime: static timing analysis with SAT false-path pruning.

Covers the acceptance criteria of the subsystem:

- one levelization implementation: ``LintContext.levels``,
  ``netstats.logic_levels`` and the unit-model STA arrivals agree
  bit-for-bit on the full stdlib corpus;
- ``analyze_timing`` reports min clock period and the k worst true
  paths on every stdlib program;
- the FALSEPATH builtin's complementary-guard chain is SAT-pruned (and
  the pruning changes the reported critical path), its sensitizable
  sibling survives, and every confirmed path's witness replays through
  the real simulator;
- the ``zeusc timing`` exit-code contract (0 clean / 1 clock violated
  by a true path / 2 load errors) and the ``zeus.timing/1`` schema.
"""

import json

import pytest

import repro
from repro.cli import main
from repro.analysis import netstats
from repro.lint import LintContext
from repro.stdlib import programs
from repro.timing import (
    FANOUT,
    UNIT,
    TimingGraph,
    analyze_timing,
    enumerate_paths,
    get_model,
    validate_timing_report,
)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _compile(name):
    return repro.compile_text(programs.ALL_PROGRAMS[name])


CORPUS = sorted(programs.ALL_PROGRAMS)


class TestLevelizationDedup:
    """One topological propagation, three consumers."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_ctx_levels_match_netstats(self, name):
        circuit = _compile(name)
        ctx = LintContext(circuit.design)
        net_levels = netstats.logic_levels(circuit.netlist)
        levels = ctx.levels
        assert levels is not None
        for ci in range(ctx.n):
            canon = circuit.netlist.find(ctx.members[ci][0]).id
            assert levels[ci] == net_levels[canon], ctx.display[ci]

    @pytest.mark.parametrize("name", CORPUS)
    def test_unit_arrivals_are_the_levels(self, name):
        circuit = _compile(name)
        ctx = LintContext(circuit.design)
        graph = TimingGraph(ctx, UNIT)
        arr = graph.arrival
        assert arr is not None
        for ci in range(ctx.n):
            assert arr[ci] == ctx.levels[ci], ctx.display[ci]

    @pytest.mark.parametrize("name", CORPUS)
    def test_sta_depth_matches_logic_depth(self, name):
        # The headline acceptance criterion: unit-delay STA depth is
        # exactly the pre-existing logic_depth on the full corpus.
        circuit = _compile(name)
        report = analyze_timing(circuit, k=1, sat=False)
        assert report.worst_arrival == netstats.logic_depth(
            circuit.netlist)


class TestAnalyzeCorpus:
    @pytest.mark.parametrize("name", CORPUS)
    def test_reports_on_every_program(self, name):
        circuit = _compile(name)
        report = analyze_timing(circuit, k=3)
        validate_timing_report(report.to_dict())
        assert report.paths, name  # k-worst true paths present
        # Worst-first ordering.
        delays = [p["delay"] for p in report.paths]
        assert delays == sorted(delays, reverse=True)
        if circuit.netlist.regs:
            assert report.min_clock_period is not None
        else:
            assert report.min_clock_period is None

    def test_min_clock_period_is_worst_reg_path(self):
        circuit = _compile("blackjack")
        report = analyze_timing(circuit, k=4)
        reg_delays = [p["delay"] for p in report.paths
                      if p["kind"].endswith("2reg")]
        assert report.min_clock_period is not None
        if reg_delays:
            assert report.min_clock_period >= max(reg_delays)
        levels = netstats.register_paths(circuit.netlist)
        assert report.min_clock_period <= max(levels.values())

    def test_pop_budget_stays_pessimistic(self):
        # max_pops counts heap pops of partial suffixes, not complete
        # paths; when it trips before any reg path is enumerated the
        # report must fall back to the raw arrival bound, never claim
        # an exact min clock of 0 (regression: budget exhaustion was
        # mistaken for proved-false exhaustion).
        circuit = _compile("blackjack")
        full = analyze_timing(circuit, sat=False)
        assert full.min_clock_exact
        for sat in (False, True):
            tight = analyze_timing(circuit, sat=sat, max_pops=5)
            assert tight.min_clock_period is not None
            assert tight.min_clock_period >= full.min_clock_period
            assert not tight.min_clock_exact

    def test_fanout_model_orders_paths_consistently(self):
        circuit = _compile("adders")
        unit = analyze_timing(circuit, k=1, sat=False)
        fanout = analyze_timing(circuit, k=1, model="fanout", sat=False)
        # Per-opcode delays are >= 1 and wire load only adds, so the
        # fanout-model critical delay dominates the unit one.
        assert fanout.worst_arrival >= unit.worst_arrival
        assert fanout.model_name == "fanout"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            get_model("spice")

    def test_cyclic_design_reports_cycle(self):
        circuit = repro.compile_text("""
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
SIGNAL p, q: boolean;
BEGIN
    p := AND(a, q);
    q := NOT p;
    y := q
END;
SIGNAL u: t;
""", strict=False)
        report = analyze_timing(circuit)
        assert report.cycle
        assert not report.paths
        validate_timing_report(report.to_dict())


class TestFalsePathPruning:
    """The hand-built complementary-guard design (stdlib 'falsepath')."""

    @pytest.fixture(scope="class")
    def report(self):
        return analyze_timing(_compile("falsepath"), k=4)

    def test_raw_critical_path_is_pruned(self, report):
        # Without pruning the critical path runs through the deep AND
        # chain (arrival 10); SAT proves s=1 AND s=0 unsatisfiable.
        assert report.worst_arrival == 10
        assert report.pruned
        assert max(p["delay"] for p in report.pruned) == 10
        for p in report.pruned:
            assert "UNSAT" in p["reason"]

    def test_pruning_changes_reported_critical_path(self, report):
        # The worst surviving path is strictly faster than the raw
        # worst arrival -- pruning changed the answer.
        worst_true = max(p["delay"] for p in report.paths)
        assert worst_true < report.worst_arrival

    def test_sensitizable_sibling_survives_with_replay(self, report):
        confirmed = [p for p in report.paths
                     if p["sensitization"] == "confirmed"]
        assert confirmed
        sib = confirmed[0]
        assert sib["startpoint"] == "fp.a"
        assert sib["replay"]["confirmed"] is True
        assert "flips" in sib["replay"]["detail"]
        # The witness drives the fast arm: s = 0 selects a into m1.
        assert sib["witness"]["fp.s"] == 0

    def test_every_confirmed_path_replays(self, report):
        for p in report.paths:
            if p["sensitization"] == "confirmed":
                assert p["replay"]["confirmed"] is True

    def test_no_sat_reports_raw_paths(self):
        report = analyze_timing(_compile("falsepath"), k=2, sat=False)
        assert not report.pruned
        assert max(p["delay"] for p in report.paths) == 10
        assert all(p["sensitization"] == "assumed"
                   for p in report.paths)

    def test_confirmed_witness_replays_by_hand(self, report):
        # Independently replay the confirmed witness: poke the frame,
        # flip the startpoint, watch the endpoint transition.
        circuit = _compile("falsepath")
        sib = next(p for p in report.paths
                   if p["sensitization"] == "confirmed")
        seen = set()
        for bit in (0, 1):
            sim = circuit.simulator(strict=False)
            for name in ("fp.a", "fp.b", "fp.c", "fp.d", "fp.s"):
                sim.poke(name, sib["witness"].get(name, 0))
            sim.poke(sib["startpoint"], bit)
            sim.step()
            seen.add(str(sim.peek_bit(sib["endpoint"])))
        assert seen == {"0", "1"}


class TestPathEnumeration:
    def test_worst_first_and_complete_on_small_design(self):
        circuit = repro.compile_text("""
TYPE t = COMPONENT (IN a, b: boolean; OUT y: boolean) IS
BEGIN
    y := OR(AND(a, b), NOT a)
END;
SIGNAL u: t;
""")
        ctx = LintContext(circuit.design)
        graph = TimingGraph(ctx, UNIT)
        paths = list(enumerate_paths(graph))
        delays = [p.delay for p in paths]
        assert delays == sorted(delays, reverse=True)
        # a reaches y twice (via AND and via NOT), b once via AND; all
        # gate->OR->drive chains are 3 arcs deep.
        starts = {(ctx.display[p.start], p.delay) for p in paths}
        assert starts == {("u.a", 3), ("u.b", 3)}
        a_paths = [p for p in paths if ctx.display[p.start] == "u.a"]
        assert len(a_paths) == 2

    def test_slack_zero_on_critical_path(self):
        circuit = _compile("adders")
        ctx = LintContext(circuit.design)
        graph = TimingGraph(ctx, UNIT)
        slack = graph.slack()
        crit = graph.critical_path()
        assert all(slack[ci] == 0 for ci in crit)
        assert all(s is None or s >= 0 for s in slack.values())


class TestTimingCLI:
    def test_clean_exit_zero(self, capsys):
        code, out, _ = run(["timing", "--builtin", "adders"], capsys)
        assert code == 0
        assert "worst arrival 28" in out
        assert "path #1" in out

    def test_clock_violation_exit_one(self, capsys):
        code, out, _ = run(
            ["timing", "--builtin", "adders", "--clock", "10"], capsys)
        assert code == 1
        assert "VIOLATED" in out

    def test_generous_clock_exit_zero(self, capsys):
        code, out, _ = run(
            ["timing", "--builtin", "adders", "--clock", "100"], capsys)
        assert code == 0

    def test_pruned_path_does_not_violate(self, capsys):
        # falsepath's raw worst path is 10 but it is proved false; a
        # clock of 7 admits every true path, so the exit is clean.
        code, out, _ = run(
            ["timing", "--builtin", "falsepath", "--clock", "7"], capsys)
        assert code == 0
        assert "pruned" in out

    def test_load_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.zeus"
        bad.write_text("TYPE t = COMPONENT (IN a: boolean\n")
        code, _, err = run(["timing", str(bad)], capsys)
        assert code == 2
        assert "error" in err

    def test_json_output_validates(self, tmp_path, capsys):
        out_file = tmp_path / "timing.json"
        code, _, _ = run(
            ["timing", "--builtin", "falsepath", "--format", "json",
             "-o", str(out_file)], capsys)
        assert code == 0
        report = json.loads(out_file.read_text())
        validate_timing_report(report)
        assert report["summary"]["paths_pruned"] > 0

    def test_sarif_output(self, capsys):
        code, out, _ = run(
            ["timing", "--builtin", "adders", "--clock", "5",
             "--format", "sarif"], capsys)
        assert code == 1
        sarif = json.loads(out)
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"]
        assert sarif["runs"][0]["results"][0]["ruleId"] == "ZT001"

    def test_metrics_has_timing_section(self, tmp_path, capsys):
        from repro.obs.export import validate_report

        metrics = tmp_path / "m.json"
        code, _, _ = run(
            ["timing", "--builtin", "falsepath",
             "--metrics", str(metrics)], capsys)
        assert code == 0
        report = json.loads(metrics.read_text())
        validate_report(report)
        assert report["timing"]["paths_pruned"] > 0
        assert report["timing"]["model"] == "unit"

    def test_fanout_model_flag(self, capsys):
        code, out, _ = run(
            ["timing", "--builtin", "adders", "--model", "fanout",
             "--paths", "1"], capsys)
        assert code == 0
        assert "model fanout" in out


class TestLintRebase:
    def test_depth_warning_cites_critical_path(self):
        from repro.lint import LintConfig, run_lint

        circuit = _compile("adders")
        config = LintConfig(max_depth=1, max_fanout=1)
        report = run_lint(circuit, config)
        depth = next(f for f in report.findings
                     if f.rule == "logic-depth-limit")
        assert "combinational depth is 28 unit delays" in depth.message
        assert "critical path:" in depth.message
        assert "->" in depth.message
        assert depth.data["depth"] == 28
