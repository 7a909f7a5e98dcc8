"""Differential oracle: lowered IR vs CPython on random inputs.

Every corpus function that lowers cleanly is executed twice per random
input -- once by CPython ``exec`` of its original source, once by the IR
interpreter on the compiled function -- and the results (return value and
final list contents) must be identical.  Inputs on which CPython itself
raises (failed precondition asserts, index errors, division by zero) are
discarded: both sides are out of contract there.

Typed copies of ``kernels.py`` -- every parameter, return and first
local assignment annotated -- must lower to the untyped IR and pass the
same oracle: annotations are not uses of a name.

Negative *constant* indices in source (``xs[-1]``) are rewritten by the
lowerer to length-relative form and compare cleanly.  Computed-negative
indices would diverge (Python wraps, the IR does not), but the corpus
only ever indexes with loop counters and asserted-nonnegative scalars.
"""

import __future__
import os
import re

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.ir.interp import Interpreter, InterpreterError
from repro.ir.printer import print_function
from repro.pyfront.lower import LEN_SUFFIX, compile_module

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def _compiled_corpus():
    functions = []
    for filename in ("kernels.py", "search.py", "numeric.py"):
        path = os.path.join(CORPUS, filename)
        with open(path, "r", encoding="utf-8") as handle:
            module = compile_module(handle.read(), origin=path)
        functions.extend(cf for cf in module.functions if cf.ok)
    return functions


COMPILED = _compiled_corpus()


def _typed_kernels():
    """``kernels.py`` with annotations added on the lines they type, so
    line numbers (and so loop header labels) stay put."""
    path = os.path.join(CORPUS, "kernels.py")
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    params = {cf.qualname: dict(cf.params) for cf in COMPILED}
    assert lines[7] == ""
    lines[7] = "from typing import List"
    kinds = {}
    for number, line in enumerate(lines):
        header = re.match(r"def (\w+)\((.*)\):$", line)
        if header:
            kinds = params[header.group(1)]
            typed = ", ".join(
                f"{name}: {'List[int]' if kinds[name] == 'list' else 'int'}"
                for name in header.group(2).split(", ")
            )
            lines[number] = f"def {header.group(1)}({typed}) -> int:"
            continue
        local = re.match(r"(\s+)(\w+) = (.*)$", line)
        if local and local.group(2) not in kinds:
            kinds = dict(kinds, **{local.group(2): "int"})
            lines[number] = f"{local.group(1)}{local.group(2)}: int = {local.group(3)}"
    module = compile_module("\n".join(lines), origin=path)
    return module.functions


TYPED = _typed_kernels()


def _int_strategy(cf, name):
    """Bound the draw by the function's own asserted preconditions, so
    precondition-heavy corpus functions don't starve on assume()."""
    lo, hi = -6, 8
    for target, relation, bound in cf.function.assumptions:
        if target != name:
            continue
        if relation == ">=":
            lo = max(lo, bound)
        elif relation == ">":
            lo = max(lo, bound + 1)
        elif relation == "<=":
            hi = min(hi, bound)
        elif relation == "<":
            hi = min(hi, bound - 1)
    return st.integers(lo, max(lo, hi))


def _python_reference(cf, ints, lists):
    env = {"__builtins__": {"range": range, "len": len}}
    # annotations stay unevaluated: typed sources name typing's List
    flags = __future__.annotations.compiler_flag
    exec(compile(cf.source, cf.origin, "exec", flags=flags, dont_inherit=True), env)
    fn = env[cf.qualname]
    kwargs = dict(ints)
    copies = {name: list(values) for name, values in lists.items()}
    kwargs.update(copies)
    try:
        returned = fn(**kwargs)
    except Exception:
        return None  # out of contract -- caller discards the input
    return {"return": returned, "lists": copies}


def _ir_run(cf, ints, lists):
    scalars = dict(ints)
    arrays = {}
    for name, values in lists.items():
        scalars[name + LEN_SUFFIX] = len(values)
        arrays[name] = {(i,): v for i, v in enumerate(values)}
    result = Interpreter(cf.function).run(scalars, arrays)
    final = {
        name: [result.arrays[name].get((i,), values[i]) for i in range(len(values))]
        for name, values in lists.items()
    }
    return {"return": result.return_value, "lists": final}


def _normalize(value):
    if isinstance(value, bool):
        return int(value)
    return value


@pytest.mark.parametrize("cf", COMPILED, ids=lambda cf: cf.qualname)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_ir_matches_cpython(cf, data):
    _check_against_cpython(cf, data)


@pytest.mark.parametrize("cf", TYPED, ids=lambda cf: "typed-" + cf.qualname)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_typed_kernels_match_cpython(cf, data):
    assert cf.ok, [d.message for d in cf.degradations]
    assert "-> int" in cf.source
    _check_against_cpython(cf, data)


def test_typed_kernels_lower_to_the_untyped_ir():
    kernels = os.path.join(CORPUS, "kernels.py:")
    untyped = {cf.qualname: cf for cf in COMPILED if cf.origin.startswith(kernels)}
    assert len(TYPED) == 8
    for cf in TYPED:
        plain = untyped[cf.qualname]
        assert cf.ok, [d.message for d in cf.degradations]
        assert cf.params == plain.params
        assert print_function(cf.function) == print_function(plain.function)
        assert cf.function.assumptions == plain.function.assumptions
        assert cf.function.array_extents == plain.function.array_extents


def _check_against_cpython(cf, data):
    ints = {}
    lists = {}
    for name, kind in cf.params:
        if kind == "list":
            lists[name] = data.draw(
                st.lists(st.integers(-8, 12), max_size=6), label=name
            )
        else:
            ints[name] = data.draw(_int_strategy(cf, name), label=name)

    expected = _python_reference(cf, ints, lists)
    assume(expected is not None)

    try:
        actual = _ir_run(cf, ints, lists)
    except InterpreterError as err:  # pragma: no cover - a real divergence
        pytest.fail(
            f"{cf.qualname}: CPython succeeded but the IR raised {err} "
            f"on ints={ints} lists={lists}"
        )

    assert _normalize(actual["return"]) == _normalize(expected["return"]), (
        cf.qualname,
        ints,
        lists,
    )
    assert actual["lists"] == expected["lists"], (cf.qualname, ints, lists)


def test_corpus_actually_exercises_the_oracle():
    # guard against silently compiling nothing (e.g. a corpus rename)
    assert len(COMPILED) >= 20
    kinds = {kind for cf in COMPILED for _, kind in cf.params}
    assert kinds == {"int", "list"}
