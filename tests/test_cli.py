"""CLI driver tests (zeusc)."""

import pathlib

import pytest

from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExamples:
    def test_lists_builtins(self, capsys):
        code, out, _ = run(["examples"], capsys)
        assert code == 0
        assert "blackjack" in out and "htree" in out


class TestCheck:
    def test_clean_builtin(self, capsys):
        code, out, _ = run(["check", "--builtin", "adders"], capsys)
        assert code == 0
        assert "0 error(s)" in out

    def test_bad_file_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.zeus"
        bad.write_text(
            "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS\n"
            "SIGNAL p: boolean;\n"
            "BEGIN p := 1; p := 0; y := a; * := p END;\n"
            "SIGNAL u: t;\n"
        )
        code, out, _ = run(["check", "--lenient", str(bad)], capsys)
        assert code == 2
        assert "unconditional" in out

    def test_syntax_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "syn.zeus"
        bad.write_text("TYPE = ;")
        code, _, err = run(["check", str(bad)], capsys)
        assert code == 2
        assert "error" in err

    def test_unknown_builtin(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--builtin", "nonexistent"])

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["check"])


class TestStats:
    def test_stats_output(self, capsys):
        code, out, _ = run(["stats", "--builtin", "mux4"], capsys)
        assert code == 0
        assert "nets" in out
        assert "IN" in out and "OUT" in out


class TestSim:
    def test_adder_simulation(self, capsys):
        code, out, _ = run(
            [
                "sim", "--builtin", "adders", "--cycles", "2",
                "--poke", "a=5", "--poke", "b=9", "--poke", "cin=0",
            ],
            capsys,
        )
        assert code == 0
        assert "14" in out

    def test_poke_at_cycle(self, capsys):
        code, out, _ = run(
            [
                "sim", "--builtin", "adders", "--cycles", "4",
                "--poke", "a=1", "--poke", "b=0", "--poke", "cin=0",
                "--poke", "b=3@2",
            ],
            capsys,
        )
        assert code == 0
        # sum transitions from 1 to 4 at cycle 2.
        assert " 1" in out and " 4" in out

    def test_vcd_output(self, tmp_path, capsys):
        vcd = tmp_path / "out.vcd"
        code, out, _ = run(
            [
                "sim", "--builtin", "adders", "--cycles", "2",
                "--poke", "a=1", "--poke", "b=2", "--poke", "cin=1",
                "--vcd", str(vcd),
            ],
            capsys,
        )
        assert code == 0
        assert vcd.exists()
        assert "$enddefinitions" in vcd.read_text()

    def test_watch_specific_signal(self, capsys):
        code, out, _ = run(
            [
                "sim", "--builtin", "adders", "--cycles", "1",
                "--poke", "a=2", "--poke", "b=2", "--poke", "cin=0",
                "--watch", "s",
            ],
            capsys,
        )
        assert code == 0
        assert out.strip().startswith("s")


class TestLayout:
    def test_layout_output(self, capsys):
        code, out, _ = run(["layout", "--builtin", "htree"], capsys)
        assert code == 0
        assert "area 16" in out

    def test_layout_svg(self, tmp_path, capsys):
        svg = tmp_path / "plan.svg"
        code, out, _ = run(
            ["layout", "--builtin", "htree", "--svg", str(svg)], capsys
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")


class TestAnalyze:
    def test_report(self, capsys):
        code, out, _ = run(["analyze", "--builtin", "adders"], capsys)
        assert code == 0
        assert "logic_depth" in out
        assert "critical path" in out

    def test_cone(self, capsys):
        code, out, _ = run(
            ["analyze", "--builtin", "adders", "--cone", "cout"], capsys
        )
        assert code == 0
        assert "cone of cout" in out
        assert "adder.a[4]" in out

    def test_unknown_cone_signal(self, capsys):
        code, _, err = run(
            ["analyze", "--builtin", "adders", "--cone", "nope"], capsys
        )
        assert code == 1


class TestGoldenReports:
    """``zeusc stats`` and ``zeusc analyze`` text, pinned byte for byte
    in ``tests/golden/<design>_<command>.txt``."""

    @pytest.mark.parametrize("design", ["blackjack", "routing"])
    @pytest.mark.parametrize("cmd", ["stats", "analyze"])
    def test_matches_golden(self, cmd, design, capsys):
        code, out, _ = run([cmd, "--builtin", design], capsys)
        assert code == 0
        assert out == (GOLDEN / f"{design}_{cmd}.txt").read_text()


class TestDot:
    def test_stdout(self, capsys):
        code, out, _ = run(["dot", "--builtin", "section8"], capsys)
        assert code == 0
        assert out.startswith("digraph")

    def test_output_file(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        code, out, _ = run(
            ["dot", "--builtin", "section8", "-o", str(dot)], capsys
        )
        assert code == 0
        assert dot.read_text().startswith("digraph")

    def test_no_synthetic(self, capsys):
        _, full, _ = run(["dot", "--builtin", "mux4"], capsys)
        _, clean, _ = run(["dot", "--builtin", "mux4", "--no-synthetic"], capsys)
        assert len(clean) < len(full)


class TestZeusFiles:
    """The shipped .zeus sources compile through the file path."""

    def test_all_shipped_files_check_clean(self, capsys):
        import glob
        import os

        files = sorted(glob.glob(
            os.path.join(os.path.dirname(__file__), "..", "examples", "zeus", "*.zeus")
        ))
        assert len(files) >= 8
        for path in files:
            code, out, _ = run(["check", path], capsys)
            assert code == 0, path

    def test_compile_file_api(self):
        import os

        import repro

        path = os.path.join(
            os.path.dirname(__file__), "..", "examples", "zeus", "adders.zeus"
        )
        circuit = repro.compile_file(path, top="adder")
        assert circuit.stats()["gates"] == 20


FORMAL_OR = """
TYPE t = COMPONENT (IN a, b: boolean; OUT z: boolean) IS
BEGIN
    z := OR(a, b)
END;
SIGNAL u: t;
"""

FORMAL_AND = FORMAL_OR.replace("OR(a, b)", "AND(a, b)")


class TestProveCLI:
    def test_proved_clean(self, capsys):
        code, out, _ = run(
            ["prove", "--builtin", "adders", "--top", "adder4"], capsys)
        assert code == 0
        assert "PROVED" in out

    def test_counterexample_exits_2(self, capsys):
        code, out, _ = run(
            ["prove", "--builtin", "section8", "--lenient"], capsys)
        assert code == 2
        assert "COUNTEREXAMPLE" in out
        assert "replay: confirmed" in out

    def test_json_output_is_valid_proof_schema(self, tmp_path, capsys):
        import json

        from repro.formal import validate_proof_report

        out_file = tmp_path / "proof.json"
        code, out, _ = run(
            ["prove", "--builtin", "section8", "--lenient",
             "--format", "json", "-o", str(out_file)], capsys)
        assert code == 2
        data = json.loads(out_file.read_text())
        validate_proof_report(data)
        assert data["mode"] == "prove"

    def test_metrics_report_has_formal_section(self, tmp_path, capsys):
        import json

        from repro.obs import validate_report

        metrics = tmp_path / "metrics.json"
        code, _, _ = run(
            ["prove", "--builtin", "adders", "--top", "adder4",
             "--metrics", str(metrics)], capsys)
        assert code == 0
        data = json.loads(metrics.read_text())
        validate_report(data)
        assert data["formal"]["mode"] == "prove"
        assert data["formal"]["refuted"] == 0

    def test_bad_property_exits_2(self, capsys):
        code, _, err = run(
            ["prove", "--builtin", "adders", "--top", "adder4",
             "--prop", "frobnicate"], capsys)
        assert code == 2
        assert "error" in err

    def test_werror_promotes_unknown(self, capsys):
        code, _, _ = run(
            ["prove", "--builtin", "blackjack", "--lenient",
             "--depth", "0", "--budget", "10", "--no-induction",
             "--prop", "no-conflict", "--werror"], capsys)
        assert code == 1


class TestEquivCLI:
    def test_paper_adders_equivalent(self, capsys):
        code, out, _ = run(
            ["equiv", "--builtin", "adders", "--top", "adder4",
             "--builtin2", "adders", "--top2", "adder"], capsys)
        assert code == 0
        assert "PROVED-EQUIVALENT" in out

    def test_inequivalent_pair_exits_2(self, tmp_path, capsys):
        fa = tmp_path / "or.zeus"
        fb = tmp_path / "and.zeus"
        fa.write_text(FORMAL_OR)
        fb.write_text(FORMAL_AND)
        code, out, _ = run(["equiv", str(fa), str(fb)], capsys)
        assert code == 2
        assert "COUNTEREXAMPLE" in out
        assert "replay: confirmed" in out

    def test_sample_cross_check(self, capsys):
        code, out, _ = run(
            ["equiv", "--builtin", "trees", "--top", "a",
             "--builtin2", "trees", "--top2", "b",
             "--sample", "16", "--seed", "3"], capsys)
        assert code == 0
        assert "seed 3" in out and "agree" in out

    def test_interface_mismatch_exits_2(self, capsys):
        code, _, err = run(
            ["equiv", "--builtin", "adders", "--top", "adder4",
             "--builtin2", "trees", "--top2", "a"], capsys)
        assert code == 2
        assert "interfaces differ" in err

    def test_missing_second_design_exits_2(self, tmp_path, capsys):
        fa = tmp_path / "or.zeus"
        fa.write_text(FORMAL_OR)
        with pytest.raises(SystemExit):
            main(["equiv", str(fa)])


class TestElaborationExitCodes:
    """Every subcommand exits 2 (never a traceback, never a fake 1) on
    a design that fails to parse or elaborate."""

    BAD = "TYPE t = COMPONENT (IN a: boolean OUT z: boolean) IS\nBEGIN z := a END;\nSIGNAL u: t;\n"

    @pytest.mark.parametrize(
        "cmd", ["check", "lint", "stats", "sim", "profile", "layout",
                "analyze", "dot", "prove"])
    def test_broken_source_exits_2(self, cmd, tmp_path, capsys):
        bad = tmp_path / "broken.zeus"
        bad.write_text(self.BAD)
        code, _, err = run([cmd, str(bad)], capsys)
        assert code == 2
        assert "error" in err

    def test_equiv_broken_source_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.zeus"
        bad.write_text(self.BAD)
        code, _, err = run(
            ["equiv", str(bad), "--builtin2", "adders", "--top2",
             "adder4"], capsys)
        assert code == 2
        assert "error" in err

    def test_sim_unknown_poke_exits_2(self, capsys):
        code, _, err = run(
            ["sim", "--builtin", "adders", "--poke", "nosuch=1"], capsys)
        assert code == 2
        assert "nosuch" in err

    def test_profile_unknown_poke_exits_2(self, capsys):
        code, _, err = run(
            ["profile", "--builtin", "adders", "--poke", "nosuch=1"],
            capsys)
        assert code == 2
        assert "nosuch" in err
