"""Chrome traces stay valid under fault injection.

Degraded phases must still close their spans: a fault contained by the
resilient pipeline cannot leave the tracer's stack unbalanced or produce
a structurally invalid trace document.
"""

import pytest

from tests.conftest import analyze_src

from repro.obs import observing
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.resilience import FaultPlan, all_fault_points, injecting

SOURCE = """
j = 1
L1: for i = 1 to n do
  A[i] = A[i-1] + j
  j = j + i
endfor
"""

#: phases that run inside ``analyze(ranges=True, invariants=True)`` for
#: SOURCE and degrade (rather than abort) when faulted
DEGRADING_POINTS = (
    "classify.loop",
    "classify.tripcount",
    "closedform.fit",
    "ranges.compute",
    "invariants.compute",
    "scalar.gvn",
    "scalar.sccp",
)


@pytest.mark.parametrize("point", DEGRADING_POINTS)
def test_trace_closes_spans_under_fault(point):
    assert point in all_fault_points()
    with observing() as obs:
        with injecting(FaultPlan(points={point})):
            program = analyze_src(SOURCE, ranges=True, invariants=True)
    assert program.degradations, point
    assert obs.tracer.open_depth() == 0
    assert validate_chrome_trace(chrome_trace(obs.tracer)) is None


def test_dependence_graph_fault_keeps_trace_valid():
    # the graph is built on the program's first read of it, not in
    # analyze(); format_report's read contains the fault and must leave
    # the trace balanced
    from repro.report import format_report

    with observing() as obs:
        program = analyze_src(SOURCE)
        with injecting(FaultPlan(points={"dependence.graph"})):
            report = format_report(program)
    assert "dependence" in report
    assert obs.tracer.open_depth() == 0
    assert validate_chrome_trace(chrome_trace(obs.tracer)) is None


def test_trace_valid_with_every_point_armed_at_once():
    with observing() as obs:
        with injecting(FaultPlan(points=set(DEGRADING_POINTS))):
            analyze_src(SOURCE, ranges=True, invariants=True)
    assert obs.tracer.open_depth() == 0
    document = chrome_trace(obs.tracer)
    assert validate_chrome_trace(document) is None
    # degradation events made it into the exported document
    names = {entry["name"] for entry in document["traceEvents"]}
    assert "resilience.degraded" in names
