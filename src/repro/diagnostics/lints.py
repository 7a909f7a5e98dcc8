"""Semantic lints: audit what the classifier *claimed*.

The classifier emits checkable obligations -- closed forms, monotonic
directions, periodicity -- and the reference interpreter
(:mod:`repro.ir.interp`) can observe the ground truth.  These lints
cross-examine the two, in the spirit of invariant-validation work
(Humenberger et al.; de Oliveira et al.): a candidate loop fact is only as
good as its check.

Three groups:

* **execution lints** (``CLS301``/``CLS302``): run the SSA function on a
  few concrete parameter samples, then diff every reported closed form
  (and monotonic verdict) against the observed value sequence;
* **lattice lints** (``CLS303``..``CLS306``): re-derive algebra results
  (IV + invariant must stay an IV with the summed form) and audit
  wrap-around / periodic bookkeeping;
* **source lints** (``SRC4xx``): surface actionable findings -- hoistable
  loop-invariant code, dead stores, unused definitions, and non-affine
  subscripts that defeat the dependence tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.algebra import cf_to_class, class_closed_form
from repro.core.classes import (
    Classification,
    InductionVariable,
    Invariant,
    Monotonic,
    Periodic,
    Unknown,
    WrapAround,
)
from repro.diagnostics.diagnostic import Diagnostic, DiagnosticCollector
from repro.ir.instructions import (
    Assign,
    BinOp,
    Compare,
    Load,
    Phi,
    Store,
    UnOp,
)
from repro.ir.interp import Interpreter, InterpreterError
from repro.ir.opcodes import BinaryOp
from repro.ir.values import Const, Ref
from repro.symbolic.expr import Expr, ExprError

#: concrete values tried for every symbolic parameter during execution lints
DEFAULT_SAMPLES: Tuple[int, ...] = (3, 7)
#: cap on iterations compared per variable and sample
MAX_TRIPS = 24
#: interpreter fuel per sample run
FUEL = 200_000

HOISTABLE = (Assign, BinOp, UnOp, Compare, Load)
PURE = (Assign, BinOp, UnOp, Compare, Load, Phi)


def lint_program(
    program,
    collector: Optional[DiagnosticCollector] = None,
    samples: Sequence[int] = DEFAULT_SAMPLES,
) -> List[Diagnostic]:
    """Run every semantic lint over an :class:`AnalyzedProgram`.

    Returns the diagnostics found (also appended to ``collector`` when
    given).
    """
    out = collector if collector is not None else DiagnosticCollector()
    start = len(out.diagnostics)
    lint_execution(program, out, samples=samples)
    lint_lattice(program, out)
    lint_source(program, out)
    return out.diagnostics[start:]


# ----------------------------------------------------------------------
# execution lints: closed forms / monotonicity vs. the interpreter
# ----------------------------------------------------------------------
def lint_execution(
    program,
    out: DiagnosticCollector,
    samples: Sequence[int] = DEFAULT_SAMPLES,
) -> None:
    function = program.ssa
    result = program.result
    emitted: Set[Tuple[str, str]] = set()
    for args in _sample_arguments(function.params, samples):
        try:
            run = Interpreter(function, fuel=FUEL, record_history=True).run(args)
        except InterpreterError:
            continue  # e.g. division by zero under this sample: not a lint

        env: Dict[str, Fraction] = {}
        for name, values in run.value_history.items():
            if len(values) == 1:
                env.setdefault(name, Fraction(values[0]))
        for name, value in run.scalars.items():
            env.setdefault(name, Fraction(value))

        for summary in result.loops.values():
            if summary.loop.parent is not None:
                # an inner loop re-executes once per outer iteration, so the
                # recorded history interleaves entries; closed forms describe
                # a single entry and cannot be aligned against it
                continue
            latches = summary.loop.latches
            own_blocks = set(summary.loop.body)
            for child in summary.loop.children:
                own_blocks -= child.body
            for name, cls in summary.classifications.items():
                history = run.value_history.get(name, [])
                # names in nested loops are summarized by their exit values,
                # which do not align with the per-execution history
                site = function.def_site(name)
                if site is None or site[0] not in own_blocks:
                    continue
                if isinstance(cls, Monotonic):
                    _check_monotonic(function, name, cls, history, args, out, emitted)
                    continue
                if not isinstance(cls, (Invariant, InductionVariable, WrapAround, Periodic)):
                    continue
                # closed forms index by iteration; the history indexes by
                # occurrence -- they only align for definitions executed on
                # every iteration (block dominates every latch)
                if not all(program.domtree.dominates(site[0], latch) for latch in latches):
                    continue
                _check_closed_form(function, name, cls, history, env, args, out, emitted)


def _sample_arguments(params: Sequence[str], samples: Sequence[int]) -> List[Dict[str, int]]:
    if not params:
        return [{}]
    return [{param: value for param in params} for value in samples]


def _check_closed_form(function, name, cls, history, env, args, out, emitted) -> None:
    if ("CLS301", name) in emitted:
        return
    for h, observed in enumerate(history[:MAX_TRIPS]):
        expected = cls.value_at(h)
        if expected is None:
            return
        if any(symbol.startswith("$k") for symbol in expected.free_symbols()):
            return  # opaque invariant: not evaluable
        try:
            predicted = expected.evaluate(env)
        except ExprError:
            return
        if predicted != observed:
            emitted.add(("CLS301", name))
            out.emit(
                "CLS301",
                f"%{name} classified {cls.describe()} but "
                f"iteration {h} evaluates to {predicted} while execution "
                f"(args {_fmt_args(args)}) observed {observed}",
                function=function.name,
                block=cls.loop,
                name=name,
                hint="the classification or a transform that preserved it is wrong",
            )
            return


def _check_monotonic(function, name, cls, history, args, out, emitted) -> None:
    if ("CLS302", name) in emitted:
        return
    for h, (earlier, later) in enumerate(zip(history, history[1:])):
        bad = None
        if cls.direction > 0:
            if later < earlier:
                bad = "decreased"
            elif cls.strict and later == earlier:
                bad = "repeated (claimed strictly increasing)"
        else:
            if later > earlier:
                bad = "increased"
            elif cls.strict and later == earlier:
                bad = "repeated (claimed strictly decreasing)"
        if bad is not None:
            emitted.add(("CLS302", name))
            out.emit(
                "CLS302",
                f"%{name} classified {cls.describe()} but its "
                f"value {bad} at occurrence {h + 1} "
                f"({earlier} -> {later}, args {_fmt_args(args)})",
                function=function.name,
                block=cls.loop,
                name=name,
            )
            return


def _fmt_args(args: Dict[str, int]) -> str:
    if not args:
        return "{}"
    return "{" + ", ".join(f"{k}={v}" for k, v in sorted(args.items())) + "}"


# ----------------------------------------------------------------------
# lattice lints: algebra laws and class bookkeeping
# ----------------------------------------------------------------------
def lint_lattice(program, out: DiagnosticCollector) -> None:
    function = program.ssa
    result = program.result
    for summary in result.loops.values():
        loop = summary.loop
        for name, cls in summary.classifications.items():
            if isinstance(cls, WrapAround):
                if cls.order != len(cls.pre_values):
                    out.emit(
                        "CLS306",
                        f"%{name} wrap-around order {cls.order} "
                        f"!= {len(cls.pre_values)} recorded pre-values",
                        function=function.name,
                        block=summary.label,
                        name=name,
                    )
                elif cls.simplify() is not cls:
                    out.emit(
                        "CLS304",
                        f"%{name} wrap-around pre-values "
                        f"{[str(v) for v in cls.pre_values]} fit the steady "
                        f"state {cls.inner.describe()}; it should have "
                        "simplified",
                        function=function.name,
                        block=summary.label,
                        name=name,
                    )
            elif isinstance(cls, Periodic):
                if all(v == cls.values[0] for v in cls.values[1:]):
                    out.emit(
                        "CLS305",
                        f"%{name} periodic over identical "
                        f"values [{', '.join(str(v) for v in cls.values)}]; "
                        "it should have simplified to an invariant",
                        function=function.name,
                        block=summary.label,
                        name=name,
                    )
        _lint_additive_laws(program, summary, loop, out)


def _lint_additive_laws(program, summary, loop, out: DiagnosticCollector) -> None:
    """IV (+|-) invariant must classify as the IV with the combined form."""
    function = program.ssa
    own_blocks = set(loop.body)
    for child in loop.children:
        own_blocks -= child.body

    def operand_class(value) -> Optional[Classification]:
        if isinstance(value, Const):
            return Invariant(Expr.const(value.value), loop=summary.label)
        if isinstance(value, Ref):
            if value.name in summary.classifications:
                return summary.classifications[value.name]
            site = function.def_site(value.name)
            if site is not None and site[0] in loop.body:
                return None  # nested-loop value: outside this lint's scope
            return Invariant(Expr.sym(value.name), loop=summary.label)
        return None

    for label in sorted(own_blocks):
        for inst in function.block(label):
            if not isinstance(inst, BinOp) or inst.op not in (BinaryOp.ADD, BinaryOp.SUB):
                continue
            actual = summary.classifications.get(inst.result)
            if actual is None:
                continue
            lhs = operand_class(inst.lhs)
            rhs = operand_class(inst.rhs)
            if lhs is None or rhs is None:
                continue
            form_l = class_closed_form(lhs)
            form_r = class_closed_form(rhs)
            if form_l is None or form_r is None:
                continue
            if not isinstance(lhs, InductionVariable) and not isinstance(rhs, InductionVariable):
                continue
            combined = form_l + form_r if inst.op is BinaryOp.ADD else form_l - form_r
            expected = cf_to_class(summary.label, combined)
            if isinstance(actual, Unknown) or actual != expected:
                out.emit(
                    "CLS303",
                    f"%{inst.result} = "
                    f"{lhs.describe()} {'+' if inst.op is BinaryOp.ADD else '-'} "
                    f"{rhs.describe()} should classify as {expected.describe()} "
                    f"but is {actual.describe()}",
                    function=function.name,
                    block=label,
                    name=inst.result,
                )


# ----------------------------------------------------------------------
# source lints
# ----------------------------------------------------------------------
#: ``lint_source``'s default ``graph``: build the dependence graph there
_BUILD = object()


def lint_source(program, out: DiagnosticCollector, graph=_BUILD) -> None:
    """The source lints.  A caller that already built the dependence graph
    passes it as ``graph``, or ``None`` when building it failed."""
    _lint_hoistable(program, out)
    _lint_dead_stores(program, out)
    _lint_unused_definitions(program, out)
    _lint_subscripts(program, out)
    _lint_imprecise_dependences(program, out, graph)


def _lint_hoistable(program, out: DiagnosticCollector) -> None:
    """Invariant computations still executing inside their loop (SRC401)."""
    function = program.ssa
    for summary in program.result.loops.values():
        loop = summary.loop
        if loop.preheader(function) is None:
            continue
        own_blocks = set(loop.body)
        for child in loop.children:
            own_blocks -= child.body
        hoistable: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for label in own_blocks:
                for inst in function.block(label):
                    if not isinstance(inst, HOISTABLE) or inst.result is None:
                        continue
                    if inst.result in hoistable:
                        continue
                    if not isinstance(summary.classifications.get(inst.result), Invariant):
                        continue
                    ok = True
                    for value in inst.uses():
                        if not isinstance(value, Ref):
                            continue
                        site = function.def_site(value.name)
                        if site is not None and site[0] in loop.body and value.name not in hoistable:
                            ok = False
                            break
                    if ok:
                        hoistable.add(inst.result)
                        changed = True
        for name in sorted(hoistable):
            site = function.def_site(name)
            out.emit(
                "SRC401",
                f"%{name} is loop-invariant in "
                f"{summary.label} but computed on every iteration",
                function=function.name,
                block=site[0],
                name=name,
                hint="hoist_invariants() can move it to the preheader",
            )


def _lint_dead_stores(program, out: DiagnosticCollector) -> None:
    """A store overwritten in-block with no intervening load (SRC402)."""
    function = program.ssa
    for block in function:
        last_store: Dict[tuple, int] = {}
        for position, inst in enumerate(block.instructions):
            if isinstance(inst, Load):
                for key in [k for k in last_store if k[0] == inst.array]:
                    del last_store[key]
            elif isinstance(inst, Store):
                if inst.indices is None:
                    key = (inst.array, None)
                else:
                    key = (inst.array, tuple(str(v) for v in inst.indices))
                if key in last_store:
                    out.emit(
                        "SRC402",
                        f"store to @{inst.array}"
                        f"{_fmt_subscript(inst)} at position {last_store[key]} "
                        f"is dead (overwritten at position {position} with no "
                        "intervening load)",
                        function=function.name,
                        block=block.label,
                        hint="delete the earlier store",
                    )
                last_store[key] = position


def _fmt_subscript(inst: Store) -> str:
    if inst.indices is None:
        return ""
    return "[" + ", ".join(str(v) for v in inst.indices) + "]"


def _lint_unused_definitions(program, out: DiagnosticCollector) -> None:
    """Pure definitions nothing ever reads (SRC404): DCE candidates."""
    function = program.ssa
    used: Set[str] = set()
    for block in function:
        for inst in block:
            for value in inst.uses():
                if isinstance(value, Ref):
                    used.add(value.name)
        if block.terminator is not None:
            for value in block.terminator.uses():
                if isinstance(value, Ref):
                    used.add(value.name)
    for block in function:
        for inst in block:
            if not isinstance(inst, PURE) or inst.result is None:
                continue
            if inst.result not in used:
                out.emit(
                    "SRC404",
                    f"%{inst.result} is never used",
                    function=function.name,
                    block=block.label,
                    name=inst.result,
                    hint="eliminate_dead_code() removes it",
                )


def _lint_imprecise_dependences(program, out: DiagnosticCollector, graph) -> None:
    """Dependence tests that fell back to the conservative answer because a
    subscript classified as Unknown (SRC405).  SRC403 flags the subscript
    itself; this flags the *pairs* whose verdict lost precision, with the
    descriptor's reason carried through the result notes."""
    if graph is _BUILD:
        from repro.dependence.graph import build_dependence_graph

        try:
            graph = build_dependence_graph(program.result)
        except Exception:
            graph = None
    if graph is None:
        return  # the graph is itself an optional phase; nothing to report
    seen: Set[Tuple[str, str, str]] = set()
    for edge in graph.edges:
        for note in edge.result.notes:
            if "unknown" not in note or not note.startswith("no test for"):
                continue
            key = (edge.source.block, edge.sink.block, note)
            if key in seen:
                continue
            seen.add(key)
            out.emit(
                "SRC405",
                f"dependence between @{edge.source.array} references in "
                f"{edge.source.block} and {edge.sink.block} assumed "
                f"conservatively: {note}",
                function=program.ssa.name,
                block=edge.source.block,
                hint="the verdict is sound but not exact; see SRC403 for "
                "the offending subscript",
            )


def _lint_subscripts(program, out: DiagnosticCollector) -> None:
    """Subscripts the dependence tests cannot describe at all (SRC403)."""
    from repro.dependence.subscript import SubscriptKind, describe_subscript

    function = program.ssa
    result = program.result
    for block in function:
        if result.nest.innermost(block.label) is None:
            continue
        for inst in block:
            if isinstance(inst, (Load, Store)) and inst.indices is not None:
                for dim, value in enumerate(inst.indices):
                    descriptor = describe_subscript(result, value, block.label)
                    if descriptor.kind is SubscriptKind.UNKNOWN:
                        out.emit(
                            "SRC403",
                            f"subscript "
                            f"{dim + 1} of @{inst.array} ({value}) is not "
                            "affine or extended-class"
                            + (f": {descriptor.reason}" if descriptor.reason else ""),
                            function=function.name,
                            block=block.label,
                            name=value.name if isinstance(value, Ref) else None,
                            hint="dependence tests will conservatively assume "
                            "a dependence at this reference",
                        )
