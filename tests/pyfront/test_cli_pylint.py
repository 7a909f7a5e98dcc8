"""The ``repro pylint`` CLI surface: formats, gating, artifacts, runlogs."""

import json
import os

from repro.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")

CLEAN = """
def doubled(xs):
    for i in range(len(xs)):
        xs[i] = xs[i] * 2
    return 0
"""

DEGRADED = """
def stringy(s):
    return s + "!"
"""


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text(CLEAN)
        assert main(["pylint", str(path)]) == 0

    def test_missing_path_exits_two(self, capsys):
        assert main(["pylint", "definitely/not/a/file.py"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_without_python_exits_two(self, tmp_path, capsys):
        assert main(["pylint", str(tmp_path)]) == 2
        assert "no Python files found" in capsys.readouterr().err

    def test_fail_on_never_tolerates_warnings(self, tmp_path):
        path = tmp_path / "deg.py"
        path.write_text(DEGRADED)
        assert main(["pylint", str(path)]) == 0

    def test_fail_on_warning_gates_degradations(self, tmp_path):
        path = tmp_path / "deg.py"
        path.write_text(DEGRADED)
        assert main(["pylint", "--fail-on", "warning", str(path)]) == 1

    def test_fail_on_error_passes_warning_only_corpus(self):
        assert main(["pylint", "--fail-on", "error", CORPUS]) == 0

    def test_fail_on_error_catches_provable_oob(self, tmp_path):
        path = tmp_path / "oob.py"
        path.write_text(
            "def smash(a):\n"
            "    assert len(a) == 4\n"
            "    a[5] = 1\n"
            "    return 0\n"
        )
        assert main(["pylint", "--fail-on", "error", str(path)]) == 1

    def test_fail_on_note_is_strictest(self, tmp_path):
        path = tmp_path / "noted.py"
        # an unrecognized assert drops with a PYF407 note
        path.write_text("def f(a, b):\n    assert a < b\n    return a\n")
        assert main(["pylint", str(path)]) == 0
        assert main(["pylint", "--fail-on", "note", str(path)]) == 1


class TestOutput:
    def test_text_report_sections(self, capsys):
        main(["pylint", CORPUS])
        out = capsys.readouterr().out
        assert "== corpus ==" in out
        assert "== loops ==" in out
        assert "DOALL" in out

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text(CLEAN)
        main(["pylint", "--format", "json", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["functions"] == 1
        assert payload["lowered"] == 1

    def test_out_writes_json_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "findings.json"
        main(["pylint", CORPUS, "--out", str(artifact)])
        payload = json.loads(artifact.read_text())
        assert payload["degraded"] >= 9
        # text still goes to stdout alongside the artifact
        assert "== corpus ==" in capsys.readouterr().out

    def test_json_and_out_render_once_and_sort_once(self, tmp_path, capsys, monkeypatch):
        import repro.pyfront
        from repro.diagnostics.diagnostic import DiagnosticCollector

        renders, sorts = [], []
        render, collector_sorted = repro.pyfront.render_corpus_json, DiagnosticCollector.sorted
        monkeypatch.setattr(
            repro.pyfront, "render_corpus_json",
            lambda result: renders.append(result) or render(result),
        )
        monkeypatch.setattr(
            DiagnosticCollector, "sorted",
            lambda self: sorts.append(self) or collector_sorted(self),
        )
        artifact = tmp_path / "findings.json"
        main(["pylint", CORPUS, "--format", "json", "--out", str(artifact),
              "--fail-on", "error"])
        assert len(renders) == 1
        assert len(sorts) == 1
        assert artifact.read_text() == capsys.readouterr().out

    def test_no_ranges_suppresses_rng_findings(self, capsys):
        numeric = os.path.join(CORPUS, "numeric.py")
        main(["pylint", "--no-ranges", numeric])
        assert "RNG603" not in capsys.readouterr().out
        main(["pylint", numeric])
        assert "RNG603" in capsys.readouterr().out


class TestRunlog:
    def test_runlog_store_written_and_readable(self, tmp_path, capsys):
        store = tmp_path / "runs"
        path = tmp_path / "clean.py"
        path.write_text(CLEAN)
        assert main(["pylint", str(path), "--runlog", str(store)]) == 0
        capsys.readouterr()
        assert main(["stats", str(store), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "python" in out
