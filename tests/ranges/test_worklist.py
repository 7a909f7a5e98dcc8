"""Worklist-fixpoint equivalence: bit-identical to the reference re-sweep.

The def-use worklist (:func:`repro.ranges.analysis._fixpoint_worklist`)
must compute exactly the intervals of the historical whole-function
re-sweep it replaced -- on random programs, on parameterized programs,
and on every embedded example.  The re-sweep survives as
:func:`tests.ranges.resweep.compute_resweep` purely for these tests.
"""

import os

from hypothesis import given, settings

from repro.core.driver import classify_function
from repro.pipeline import analyze
from repro.ranges.analysis import _compute

from tests.property.test_range_soundness import assumed_programs, loop_programs
from tests.ranges.resweep import MAX_PASSES, compute_resweep


def _both_fixpoints(source):
    """(worklist RangeInfo, re-sweep RangeInfo) for one program."""
    program = analyze(source)
    result = classify_function(program.ssa)
    fast = _compute(result.function, result)
    slow = compute_resweep(result.function, result)
    return fast, slow


def assert_equivalent(source):
    fast, slow = _both_fixpoints(source)
    assert set(fast.values) == set(slow.values)
    for name in slow.values:
        assert fast.values[name] == slow.values[name], (
            f"{name}: worklist {fast.values[name]} != re-sweep {slow.values[name]}"
        )
    assert fast.trips == slow.trips


@settings(max_examples=60, deadline=None)
@given(loop_programs())
def test_worklist_matches_resweep_on_random_loops(source):
    assert_equivalent(source)


@settings(max_examples=60, deadline=None)
@given(assumed_programs())
def test_worklist_matches_resweep_on_assumed_programs(case):
    source, _ = case
    assert_equivalent(source)


def test_worklist_matches_resweep_on_examples_corpus():
    from repro.diagnostics.driver import collect_targets

    examples = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
    targets = collect_targets([examples])
    assert targets, "examples corpus must not be empty"
    for target in targets:
        assert_equivalent(target.source)


def test_worklist_visit_counters_are_recorded():
    source = "\n".join(
        [
            "x = 0",
            "y = 10",
            "L1: for i = 1 to 8 do",
            "  x = x + 2",
            "  y = y - 1",
            "endfor",
        ]
    )
    program = analyze(source)
    result = classify_function(program.ssa)
    info = _compute(result.function, result)
    assert info.fixpoint_insts > 0
    # every instruction is visited at least once, and re-visits only
    # happen on actual narrowings -- strictly better than the re-sweep's
    # passes * insts worst case
    assert info.fixpoint_visits >= info.fixpoint_insts
    assert info.fixpoint_visits <= MAX_PASSES * info.fixpoint_insts
    assert 0 <= info.fixpoint_narrowed <= info.fixpoint_visits
