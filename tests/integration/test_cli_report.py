"""Tests for the report generator, DOT exports, and the CLI."""

import subprocess
import sys

import pytest

from tests.conftest import analyze_src
from repro.cli import main
from repro.dependence.graph import build_dependence_graph
from repro.ir.dot import cfg_to_dot, dependence_graph_to_dot, ssa_graph_to_dot
from repro.report import format_report

SOURCE = """
j = 1
iml = n
L14: for i = 1 to n do
  A[i] = A[iml] + 1
  j = j + i
  iml = i
endfor
"""


class TestReport:
    def test_contains_classifications(self):
        p = analyze_src(SOURCE)
        report = format_report(p)
        assert "(L14, 1, 1)" in report
        assert "wraparound" in report
        assert "(L14, 1, 1/2, 1/2)" in report

    def test_trip_count_and_exit_values(self):
        p = analyze_src(SOURCE)
        report = format_report(p)
        assert "trip count: n" in report
        assert "exits with" in report

    def test_dependences_and_parallelism(self):
        p = analyze_src(SOURCE)
        report = format_report(p)
        assert "dependence graph" in report
        assert "parallelizable" in report

    def test_temporaries_hidden_by_default(self):
        p = analyze_src(SOURCE)
        assert "$t" not in format_report(p)
        assert "$t" in format_report(p, show_temporaries=True)

    def test_ir_dump(self):
        p = analyze_src(SOURCE)
        assert "phi" in format_report(p, show_ir=True)

    def test_no_loops(self):
        p = analyze_src("x = 1\nreturn x")
        assert "no loops" in format_report(p)

    def test_nested_report_indents(self):
        p = analyze_src(
            "L1: for i = 1 to n do\n  L2: for j = 1 to i do\n    A[j] = i\n  endfor\nendfor"
        )
        report = format_report(p)
        assert "loop L1 (depth 1)" in report
        assert "  loop L2 (depth 2)" in report


class TestDot:
    def test_cfg(self):
        p = analyze_src(SOURCE)
        dot = cfg_to_dot(p.ssa)
        assert dot.startswith("digraph")
        assert '"L14"' in dot and "->" in dot
        assert dot.rstrip().endswith("}")

    def test_cfg_without_instructions(self):
        p = analyze_src(SOURCE)
        dot = cfg_to_dot(p.ssa, include_instructions=False)
        assert "phi" not in dot

    def test_ssa_graph(self):
        p = analyze_src(SOURCE)
        dot = ssa_graph_to_dot(p.ssa)
        assert "style=dashed" in dot  # external operand edges

    def test_dependence_graph(self):
        p = analyze_src(SOURCE)
        dot = dependence_graph_to_dot(build_dependence_graph(p.result))
        assert "digraph" in dot


class TestCLI:
    def run_cli(self, tmp_path, args, source=SOURCE):
        path = tmp_path / "input.loop"
        path.write_text(source)
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([str(path)] + args)
        return code, out.getvalue()

    def test_report_mode(self, tmp_path):
        code, out = self.run_cli(tmp_path, [])
        assert code == 0
        assert "(L14, 1, 1)" in out

    def test_dump_named_ir(self, tmp_path):
        code, out = self.run_cli(tmp_path, ["--dump-named-ir"])
        assert code == 0
        assert out.startswith("func main")
        assert "phi" not in out

    def test_dot_modes(self, tmp_path):
        for flag in ("--dot-cfg", "--dot-ssa", "--dot-deps"):
            code, out = self.run_cli(tmp_path, [flag])
            assert code == 0
            assert out.startswith("digraph")

    def test_dot_deps_when_the_graph_fails(self, tmp_path, monkeypatch, capsys):
        import repro.dependence.graph as graph_module

        def broken(result, *args, **kwargs):
            raise RuntimeError("broken graph")

        monkeypatch.setattr(graph_module, "build_dependence_graph", broken)
        code, out = self.run_cli(tmp_path, ["--dot-deps"])
        assert code == 1 and out == ""
        assert "dependence analysis failed" in capsys.readouterr().err

    def test_no_deps(self, tmp_path):
        code, out = self.run_cli(tmp_path, ["--no-deps"])
        assert code == 0
        assert "dependence graph" not in out

    def test_no_opt(self, tmp_path):
        code, out = self.run_cli(tmp_path, ["--no-opt"])
        assert code == 0

    def test_syntax_error_exit_code(self, tmp_path):
        code, _ = self.run_cli(tmp_path, [], source="for for for")
        assert code == 1

    def test_missing_file(self):
        assert main(["/nonexistent/file.loop"]) == 2

    def test_module_invocation(self, tmp_path):
        path = tmp_path / "input.loop"
        path.write_text(SOURCE)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "L14" in proc.stdout
