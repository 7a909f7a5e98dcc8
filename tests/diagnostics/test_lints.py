"""Semantic lints: classification soundness and source-level findings.

The CLS tests *tamper* with analysis results on purpose -- planting a
wrong closed form, a wrong monotonic verdict, corrupt wrap-around
bookkeeping -- and assert the lint catches exactly that code.
"""

from repro.core.classes import (
    InductionVariable,
    Invariant,
    Monotonic,
    Periodic,
    Unknown,
    WrapAround,
)
from repro.diagnostics import DiagnosticCollector
from repro.diagnostics.lints import (
    lint_execution,
    lint_lattice,
    lint_program,
    lint_source,
)
from repro.pipeline import analyze
from repro.symbolic.closedform import ClosedForm
from repro.symbolic.expr import Expr

COUNTING = """
i = 0
L1: while i < n do
  i = i + 2
endwhile
return i
"""

NESTED = """
j = 0
L1: for i = 1 to n do
  j = j + i
  L2: for k = 1 to i do
    j = j + 1
  endfor
endfor
return j
"""


def run_lints(program, which=lint_program):
    out = DiagnosticCollector()
    if which is lint_program:
        which(program, collector=out)
    else:
        which(program, out)
    return out


def header_iv_name(program, header="L1"):
    """The loop's linear IV defined at the header (e.g. ``i.2``)."""
    summary = program.result.loops[header]
    for name, cls in summary.classifications.items():
        site = program.ssa.def_site(name)
        if (
            isinstance(cls, InductionVariable)
            and cls.is_linear
            and site is not None
            and site[0] == header
        ):
            return name
    raise AssertionError("no header IV found")


class TestExecutionLints:
    def test_clean_program_has_no_cls_findings(self):
        out = run_lints(analyze(COUNTING))
        assert not [c for c in out.codes() if c.startswith("CLS")]

    def test_cls301_wrong_closed_form(self):
        program = analyze(COUNTING)
        name = header_iv_name(program)
        summary = program.result.loops["L1"]
        summary.classifications[name] = InductionVariable(
            "L1", ClosedForm.linear(0, 5)  # truth steps by 2
        )
        out = run_lints(program, lint_execution)
        (diag,) = [d for d in out if d.code == "CLS301"]
        assert diag.name == name
        assert diag.is_error

    def test_cls301_wrong_invariant(self):
        program = analyze(COUNTING)
        name = header_iv_name(program)
        summary = program.result.loops["L1"]
        summary.classifications[name] = Invariant(Expr.const(17), loop="L1")
        out = run_lints(program, lint_execution)
        assert "CLS301" in out.codes()

    def test_cls302_wrong_direction(self):
        program = analyze(COUNTING)
        name = header_iv_name(program)
        summary = program.result.loops["L1"]
        summary.classifications[name] = Monotonic("L1", direction=-1, strict=True)
        out = run_lints(program, lint_execution)
        (diag,) = [d for d in out if d.code == "CLS302"]
        assert diag.name == name

    def test_monotonic_consistent_verdict_clean(self):
        program = analyze(COUNTING)
        name = header_iv_name(program)
        summary = program.result.loops["L1"]
        summary.classifications[name] = Monotonic("L1", direction=1, strict=True)
        out = run_lints(program, lint_execution)
        assert "CLS302" not in out.codes()

    def test_nested_loop_names_are_skipped(self):
        # inner-loop names are summarized by exit values; the execution
        # lint must not diff them against the interleaved history
        out = run_lints(analyze(NESTED))
        assert not out.errors()


class TestLatticeLints:
    def test_cls303_algebra_law_violation(self):
        program = analyze(COUNTING)
        summary = program.result.loops["L1"]
        # find the add feeding the IV: its result must classify as an IV
        name = [
            n
            for n, c in summary.classifications.items()
            if isinstance(c, InductionVariable)
            and program.ssa.def_site(n) is not None
            and program.ssa.def_site(n)[0] != "L1"
        ][0]
        summary.classifications[name] = Unknown("tampered")
        out = run_lints(program, lint_lattice)
        assert "CLS303" in out.codes()

    def test_cls304_unsimplified_wraparound(self):
        program = analyze(COUNTING)
        name = header_iv_name(program)
        summary = program.result.loops["L1"]
        inner = summary.classifications[name]
        # pre-value equals inner.value_at(0): simplify() would collapse it
        wrapped = WrapAround("L1", 1, inner, (inner.value_at(0),))
        summary.classifications[name] = wrapped
        out = run_lints(program, lint_lattice)
        assert "CLS304" in out.codes()

    def test_cls305_constant_periodic(self):
        program = analyze(COUNTING)
        name = header_iv_name(program)
        summary = program.result.loops["L1"]
        summary.classifications[name] = Periodic(
            "L1", (Expr.const(3), Expr.const(3))
        )
        out = run_lints(program, lint_lattice)
        assert "CLS305" in out.codes()

    def test_cls306_order_mismatch(self):
        program = analyze(COUNTING)
        name = header_iv_name(program)
        summary = program.result.loops["L1"]
        inner = summary.classifications[name]
        wrapped = WrapAround("L1", 1, inner, (Expr.const(99),))
        wrapped.order = 2  # corrupt the bookkeeping (ctor validates)
        summary.classifications[name] = wrapped
        out = run_lints(program, lint_lattice)
        assert "CLS306" in out.codes()


class TestSourceLints:
    def test_src401_hoistable_invariant(self):
        program = analyze(
            """
L1: for i = 1 to n do
  t = n * n
  A[i] = t
endfor
return n
"""
        )
        out = run_lints(program, lint_source)
        assert "SRC401" in out.codes()

    def test_src402_dead_store(self):
        program = analyze(
            """
L1: for i = 1 to n do
  A[i] = 1
  A[i] = 2
endfor
return n
"""
        )
        out = run_lints(program, lint_source)
        assert "SRC402" in out.codes()

    def test_no_dead_store_with_intervening_load(self):
        program = analyze(
            """
L1: for i = 1 to n do
  A[i] = 1
  x = A[i]
  A[i] = x + 1
endfor
return n
"""
        )
        out = run_lints(program, lint_source)
        assert "SRC402" not in out.codes()

    def test_src403_non_affine_subscript(self):
        program = analyze(
            """
L1: for i = 1 to n do
  q = B[i]
  A[q] = 0
endfor
return n
"""
        )
        out = run_lints(program, lint_source)
        assert "SRC403" in out.codes()

    def test_src404_unused_definition(self):
        program = analyze(
            """
i = 0
L1: while i < n do
  u = i + 7
  i = i + 1
endwhile
return i
"""
        )
        out = run_lints(program, lint_source)
        unused = [d for d in out if d.code == "SRC404"]
        assert any("u" in (d.name or "") for d in unused)

    def test_src404_skips_compiler_temporaries(self):
        # the assume's comparison lowers to a temporary nothing reads
        program = analyze(
            """
assume n >= 1
i = 0
L1: while i < n do
  u = i + 7
  i = i + 1
endwhile
return i
"""
        )
        assert "$t1.1" in program.ssa.definitions()
        out = run_lints(program, lint_source)
        unused = [d.name for d in out if d.code == "SRC404"]
        assert "u.1" in unused
        assert not [name for name in unused if name.startswith("$")]

    def test_affine_subscript_clean(self):
        program = analyze(COUNTING.replace("i = i + 2", "A[i] = i\n  i = i + 2"))
        out = run_lints(program, lint_source)
        assert "SRC403" not in out.codes()
