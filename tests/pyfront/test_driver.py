"""Corpus driver: pylint_paths end-to-end over the committed mini-corpus."""

import json
import os

import pytest

from repro.diagnostics import DiagnosticCollector, Severity
from repro.obs import runlog
from repro.obs.aggregate import aggregate, load_records, validate_record
from repro.pyfront import pylint_paths, render_corpus_json, render_corpus_text

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


@pytest.fixture(scope="module")
def corpus_result():
    return pylint_paths([CORPUS])


def test_corpus_counts(corpus_result):
    assert corpus_result.files == 4
    assert corpus_result.functions == corpus_result.lowered + corpus_result.degraded
    assert corpus_result.lowered >= 20
    # degrade.py exists to fail -- every function in it must degrade
    assert corpus_result.degraded >= 9


def test_every_outcome_has_origin_and_qualname(corpus_result):
    for outcome in corpus_result.outcomes:
        assert outcome.origin.startswith(CORPUS)
        assert outcome.qualname


def test_no_errors_from_committed_corpus(corpus_result):
    errors = [
        d
        for d in corpus_result.findings
        if d.severity >= Severity.ERROR
    ]
    assert errors == []


def test_degradations_surface_as_pyf_warnings(corpus_result):
    pyf = [d for d in corpus_result.findings if d.code.startswith("PYF")]
    assert pyf
    for diag in pyf:
        assert diag.origin and ".py:" in diag.origin


def test_divisor_hazard_found_in_numeric_corpus(corpus_result):
    rng603 = [d for d in corpus_result.findings if d.code == "RNG603"]
    assert any("average_step" in (d.function or "") for d in rng603)


def test_parallel_and_serial_loops_both_present(corpus_result):
    verdicts = {
        (outcome.qualname, row["parallel"])
        for outcome in corpus_result.outcomes
        for row in outcome.loops
    }
    parallel = {name for name, ok in verdicts if ok}
    serial = {name for name, ok in verdicts if not ok}
    assert "scale" in parallel
    assert "prefix_sum" in serial


def test_serial_loops_carry_blocker_reasons(corpus_result):
    for outcome in corpus_result.outcomes:
        if outcome.qualname != "prefix_sum":
            continue
        for row in outcome.loops:
            if not row["parallel"]:
                assert row["blocked_by"], row
                return
    pytest.fail("prefix_sum serial loop not found")


def test_render_text_mentions_counts_and_verdicts(corpus_result):
    text = render_corpus_text(corpus_result)
    assert "== corpus ==" in text
    assert "DOALL" in text
    assert "serial[" in text


def test_render_json_round_trips(corpus_result):
    payload = json.loads(render_corpus_json(corpus_result))
    assert payload["functions"] == corpus_result.functions
    assert payload["lowered"] == corpus_result.lowered
    assert payload["degraded"] == corpus_result.degraded
    assert isinstance(payload["findings"], list)


def test_missing_path_raises_oserror():
    with pytest.raises(OSError):
        pylint_paths([os.path.join(CORPUS, "no_such_file.py")])


def test_shared_collector_is_used():
    out = DiagnosticCollector()
    result = pylint_paths([CORPUS], collector=out)
    assert result.collector is out
    assert out.sorted()


def test_runlog_records_tag_python_and_validate(tmp_path):
    store = tmp_path / "runs"
    with runlog.recording(str(store)):
        pylint_paths([CORPUS])
    records = list(load_records(str(store)))
    assert records
    for record in records:
        assert validate_record(record) is None, validate_record(record)
        assert record["source_lang"] == "python"


def test_aggregate_reports_python_language(tmp_path):
    store = tmp_path / "runs"
    with runlog.recording(str(store)):
        pylint_paths([CORPUS])
    stats = aggregate(load_records(str(store)))
    assert stats["languages"].get("python", 0) > 0


def test_degraded_functions_get_skip_records(tmp_path):
    store = tmp_path / "runs"
    with runlog.recording(str(store)):
        pylint_paths([os.path.join(CORPUS, "degrade.py")])
    records = list(load_records(str(store)))
    # every degraded function still leaves a schema-valid trace
    assert len(records) >= 9
    for record in records:
        assert validate_record(record) is None
        assert record["degradations"]


INDIRECT = """
def indirect(a, b, n):
    for i in range(n):
        a[b[i]] = a[b[i]] + 1
    return 0
"""


def _count_builds(monkeypatch, fail=False):
    import repro.dependence.graph as graph_module

    builds = []
    build = graph_module.build_dependence_graph

    def counted(result, *args, **kwargs):
        builds.append(result)
        if fail:
            raise RuntimeError("injected")
        return build(result, *args, **kwargs)

    monkeypatch.setattr(graph_module, "build_dependence_graph", counted)
    return builds


def test_dependence_graph_built_once_per_lowered_function(tmp_path, monkeypatch):
    path = tmp_path / "indirect.py"
    path.write_text(INDIRECT)
    builds = _count_builds(monkeypatch)
    result = pylint_paths([str(path), CORPUS])
    assert len(builds) == result.lowered
    assert [d.code for d in result.findings].count("SRC405") == 1
    rows = [row for outcome in result.outcomes for row in outcome.loops]
    assert all(row["parallel"] is not None for row in rows)


def test_failed_graph_build_leaves_verdicts_undecided_and_no_src405(
    tmp_path, monkeypatch
):
    path = tmp_path / "indirect.py"
    path.write_text(INDIRECT)
    builds = _count_builds(monkeypatch, fail=True)
    result = pylint_paths([str(path)])
    assert result.lowered == 1 and len(builds) == 1
    (row,) = result.outcomes[0].loops
    assert row["parallel"] is None and row["blocked_by"] == []
    assert "SRC405" not in [d.code for d in result.findings]
