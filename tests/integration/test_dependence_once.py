"""Each analyzed function builds its dependence graph once, whoever reads it.

The report, the lints, ``--explain`` and the run-log record all read the
graph and the loop verdicts from the one memo on ``AnalyzedProgram``.
"""

import os

import pytest

from repro.cli import main
from repro.resilience import FaultPlan, injecting
from repro.service.worker import run_job

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
WOLFE = os.path.join(ROOT, "examples", "wolfe_figures.loop")
KERNELS = os.path.join(ROOT, "tests", "pyfront", "corpus", "kernels.py")


@pytest.fixture
def plan():
    """A plan that never trips: it counts every ``build_dependence_graph``
    call at its fault point, however the caller bound the function."""
    plan = FaultPlan(points={"dependence.graph"}, seed=0, rate=0.0)
    with injecting(plan):
        yield plan
    assert not plan.fired


def builds(plan):
    return plan.hits.get("dependence.graph", 0)


def test_cli_report_with_lint_runlog_and_explain_builds_once(
    tmp_path, plan, capsys
):
    argv = [WOLFE, "--lint", "--runlog", str(tmp_path), "--explain", "L1"]
    assert main(argv) == 0
    assert "== explain L1 ==" in capsys.readouterr().out
    assert builds(plan) == 1


def test_service_dsl_job_with_report_builds_once(plan):
    with open(WOLFE) as handle:
        source = handle.read()
    response = run_job({"id": 1, "source": source, "options": {"report": True}})
    assert response["ok"] and "== dependence graph ==" in response["report"]
    assert builds(plan) == 1


def test_service_python_job_with_report_builds_once_per_function(plan):
    with open(KERNELS) as handle:
        source = handle.read()
    response = run_job(
        {"id": 2, "source": source,
         "options": {"report": True, "language": "python"}}
    )
    assert response["ok"]
    assert response["record"]["functions"]["lowered"] == 8
    assert builds(plan) == 8
