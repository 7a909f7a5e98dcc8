"""pyfront's one walk per function: same answers as the multi-walk
reference, and the work it saves stays saved.

The single pass (``infer_kinds`` gathering what the loop-variable checks
read) must give the reference's kinds and the reference's PYF records --
code, message and order -- on every ``def`` of the repository.  The
counter tests pin the savings: ``ast.unparse`` runs only for functions
whose source is read, and ``ast.walk`` visits each node about once.
"""

import ast
import os
import textwrap

import pytest

from repro.pyfront import driver
from repro.pyfront import lower
from repro.pyfront.lower import _function_defs, _Validator, compile_module
from repro.pyfront.typeinfer import infer_kinds
from tests.pyfront import multiwalk

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
TREES = ("src/repro", "tests", "examples")


def python_files(tree):
    top = os.path.join(ROOT, tree)
    return sorted(
        os.path.join(folder, name)
        for folder, _, names in os.walk(top)
        for name in names
        if name.endswith(".py")
    )


def defs_of(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return [
        (qualname, node)
        for qualname, node in _function_defs(tree)
        if isinstance(node, ast.FunctionDef)
    ]


def records(validator):
    return [
        (r.diag_code, r.code, r.message, r.scope, r.action)
        for r in validator.run()
    ]


def mismatches(qualname, node):
    """How the single pass and the reference disagree on one def."""
    kinds = infer_kinds(node)
    reference = multiwalk.infer_kinds(node)
    out = []
    if list(kinds.kinds.items()) != list(reference.kinds.items()):
        out.append(f"{qualname}: kinds {kinds.kinds} != {reference.kinds}")
    if kinds.conflicts != reference.conflicts:
        out.append(f"{qualname}: conflicts {kinds.conflicts} != {reference.conflicts}")
    if kinds.assigned != reference.assigned:
        out.append(f"{qualname}: assigned {kinds.assigned} != {reference.assigned}")
    got = records(_Validator(node, kinds, qualname))
    want = records(multiwalk.Validator(node, reference, qualname))
    if got != want:
        out.append(f"{qualname}: records {got} != {want}")
    return out


@pytest.mark.parametrize("tree", TREES)
def test_single_pass_matches_reference(tree):
    files = python_files(tree)
    assert files, tree
    problems = []
    checked = 0
    for path in files:
        for qualname, node in defs_of(path):
            checked += 1
            problems += mismatches(f"{path}:{qualname}", node)
    assert checked
    assert not problems, "\n".join(problems[:10])


LOOP_CASES = {
    "shielded-sequential-loops": (
        """
        def f(n):
            t = 0
            for i in range(n):
                t += i
            for i in range(n):
                t += i
            return t
        """,
        [],
    ),
    "nested-loops-one-variable": (
        """
        def f(n):
            t = 0
            for i in range(n):
                for i in range(n):
                    t += i
            return t
        """,
        ["loop-variable-reassigned"],
    ),
    "reassigned-in-inner-loop": (
        """
        def f(n):
            for i in range(n):
                for j in range(n):
                    i = j
            return 0
        """,
        ["loop-variable-reassigned"],
    ),
    "read-after-loop-in-else": (
        """
        def f(n):
            for i in range(n):
                pass
            if n > 0:
                return 0
            else:
                return i
        """,
        ["loop-variable-read-after-loop"],
    ),
    "read-after-loop-in-while": (
        """
        def f(n):
            for i in range(n):
                pass
            while n > 0:
                n -= i
            return i
        """,
        ["loop-variable-read-after-loop", "loop-variable-read-after-loop"],
    ),
    "read-after-list-loop-is-fine": (
        """
        def f(xs):
            x = 0
            for x in xs:
                pass
            return x
        """,
        [],
    ),
}


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_loop_variable_cases(case):
    source, expected = LOOP_CASES[case]
    node = ast.parse(textwrap.dedent(source)).body[0]
    assert mismatches(case, node) == []
    found = [
        r.code
        for r in _Validator(node, infer_kinds(node), "f").run()
        if r.diag_code == "PYF405"
    ]
    assert found == expected


def test_degraded_functions_never_unparse(monkeypatch):
    calls = []
    unparse = ast.unparse

    def counted(node):
        calls.append(node)
        return unparse(node)

    monkeypatch.setattr(ast, "unparse", counted)
    result = driver.pylint_paths([CORPUS])
    assert result.degraded > 0
    assert len(calls) == result.lowered


def test_source_renders_once_and_stays_best_effort(monkeypatch):
    module = compile_module("def f(n):\n    return n + 1\n", origin="f.py")
    (cf,) = module.functions
    calls = []
    monkeypatch.setattr(ast, "unparse", lambda node: calls.append(node) or "x")
    assert cf.source == "x" and cf.source == "x"
    assert len(calls) == 1

    def broken(node):
        raise ValueError("no")

    (cf,) = compile_module("def g():\n    pass\n").functions
    monkeypatch.setattr(ast, "unparse", broken)
    assert cf.source is None


def count_walks(monkeypatch):
    """Count the nodes every later ``ast.walk`` yields, as perfbench does."""
    walk = ast.walk
    visited = [0]

    def counted(node):
        for child in walk(node):
            visited[0] += 1
            yield child

    monkeypatch.setattr(ast, "walk", counted)
    return visited


def test_walk_visits_each_node_about_once(monkeypatch):
    # loop-heavy code costs more (the kernels corpus alone reads ~1.4x):
    # a loop's own subtree is walked again when it could give a PYF405
    nodes = sum(
        sum(1 for _ in ast.walk(node))
        for tree in TREES
        for path in python_files(tree)
        for _, node in defs_of(path)
    )
    visited = count_walks(monkeypatch)
    for tree in TREES:
        for path in python_files(tree):
            with open(path, encoding="utf-8") as handle:
                compile_module(handle.read(), origin=path)
    assert nodes <= visited[0] <= 1.05 * nodes


def test_loop_free_function_is_walked_once(monkeypatch):
    source = "def f(a, n):\n    if n > 0:\n        a[0] = n * 2\n    return len(a)\n"
    (node,) = ast.parse(source).body
    nodes = sum(1 for _ in ast.walk(node))
    visited = count_walks(monkeypatch)
    assert lower.compile_function(node, "f", "f.py").ok
    assert visited[0] == nodes
