"""The whole-function re-sweep range fixpoint, kept as a reference.

``repro.ranges`` once re-ran every instruction's transfer function, pass
after pass, until nothing narrowed (at most ``MAX_PASSES`` passes).  It
now runs a def-use worklist; ``test_worklist.py`` holds that worklist to
this, the straightforward version.
"""

from repro.core.driver import AnalysisResult
from repro.ir.function import Function
from repro.ranges.analysis import TOP, RangeInfo, _seed, _transfer

#: fixpoint pass cap of the re-sweep
MAX_PASSES = 8


def compute_resweep(function: Function, result: AnalysisResult) -> RangeInfo:
    """Seed as :func:`repro.ranges.analysis._compute` does, then re-sweep."""
    info = _seed(function, result)
    env = info.values
    for _ in range(MAX_PASSES):
        changed = False
        for block in function:
            for inst in block:
                if inst.result is None:
                    continue
                derived = _transfer(inst, info)
                if derived is None:
                    continue
                old = env.get(inst.result, TOP)
                new = old.intersect(derived)
                if new != old:
                    env[inst.result] = new
                    changed = True
        if not changed:
            break
    return info
