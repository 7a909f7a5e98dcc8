"""Usage-based kind inference for the real-Python frontend.

The IR models exactly two kinds of value: int scalars and arrays of
ints.  A real Python function gets to play only if every name it touches
fits one of those: parameters and locals used in arithmetic, compares,
``range()`` arguments, or subscript *indices* are ``int``; names that
are subscripted, iterated over, or passed to ``len()`` are ``list``.
A name used both ways (or a list that is *assigned*, i.e. created
locally) is a kind conflict -- the function degrades with ``PYF404``
instead of guessing.  Annotations (of parameters, of the return, of an
annotated assignment) are not uses: ``a: List[int]`` leaves ``List``
out of it.

The inference is deliberately syntactic: one ``ast.walk`` of the
function, no dataflow.  That matches the frontend's contract -- it must
never be *wrong silently*; when in doubt it reports a conflict and the
function degrades.  The same walk gathers what the loop-variable checks
in :mod:`repro.pyfront.lower` read (every ``Name`` node and every ``for``
over a plain name), so a function is walked once, not once per check.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

INT = "int"
LIST = "list"

__all__ = ["INT", "LIST", "Kinds", "infer_kinds"]


@dataclass
class Kinds:
    """The inferred kind of every name a function touches."""

    #: name -> ``"int"`` | ``"list"`` (conflicted names stay ``"list"``)
    kinds: Dict[str, str] = field(default_factory=dict)
    #: ``(name, why-int, why-list)`` for every name used both ways
    conflicts: List[Tuple[str, str, str]] = field(default_factory=list)
    #: every name written anywhere (Store context, incl. for-targets)
    assigned: Set[str] = field(default_factory=set)
    #: identifier -> its ``Name`` nodes, in ``ast.walk`` order
    names: Dict[str, List[ast.Name]] = field(default_factory=dict)
    #: the ``for`` loops whose target is a plain name, in ``ast.walk`` order
    loops: List[ast.For] = field(default_factory=list)

    def kind_of(self, name: str) -> str:
        return self.kinds.get(name, INT)

    def is_list(self, name: str) -> bool:
        return self.kinds.get(name) == LIST


def infer_kinds(node: ast.FunctionDef) -> Kinds:
    """Infer the kind of every name in one function body, in one walk.

    ``ast.walk`` yields a node before its children, so a ``Name`` that a
    subscript, call or ``for`` claims as a list position or a callee is
    already claimed by the time the walk reaches it -- and a node inside
    an annotation is already known to be one.
    """
    int_uses: Dict[str, str] = {}
    list_uses: Dict[str, str] = {}
    assigned: Set[str] = set()
    # Name nodes claimed by a list-position or call-callee pattern; they
    # must not also count as int uses
    claimed: Set[int] = set()
    names: Dict[str, List[ast.Name]] = {}
    loops: List[ast.For] = []
    # nodes inside an annotation: skipped, and so are their children
    annotation: Set[int] = set()

    def list_use(name_node: ast.Name, why: str) -> None:
        list_uses.setdefault(name_node.id, why)
        claimed.add(id(name_node))

    for child in ast.walk(node):
        if id(child) in annotation:
            annotation.update(id(inner) for inner in ast.iter_child_nodes(child))
            continue
        if isinstance(child, ast.Name):
            names.setdefault(child.id, []).append(child)
            if isinstance(child.ctx, ast.Store):
                assigned.add(child.id)
                if id(child) not in claimed:
                    int_uses.setdefault(child.id, "assigned")
            elif id(child) not in claimed:
                int_uses.setdefault(child.id, "used as an integer")
        elif isinstance(child, ast.Subscript):
            if isinstance(child.value, ast.Name):
                list_use(child.value, "subscripted")
        elif isinstance(child, ast.Call):
            if isinstance(child.func, ast.Name):
                claimed.add(id(child.func))  # callee, not a value use
                if (
                    child.func.id == "len"
                    and len(child.args) == 1
                    and isinstance(child.args[0], ast.Name)
                ):
                    list_use(child.args[0], "passed to len()")
        elif isinstance(child, ast.For):
            if isinstance(child.iter, ast.Name):
                list_use(child.iter, "iterated over")
            if isinstance(child.target, ast.Name):
                loops.append(child)
        elif isinstance(child, (ast.arg, ast.AnnAssign)):
            if child.annotation is not None:
                annotation.add(id(child.annotation))
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child.returns is not None:
                annotation.add(id(child.returns))

    kinds: Dict[str, str] = {}
    conflicts: List[Tuple[str, str, str]] = []
    for name in sorted(set(int_uses) | set(list_uses)):
        if name in list_uses:
            kinds[name] = LIST
            if name in int_uses:
                conflicts.append((name, int_uses[name], list_uses[name]))
        else:
            kinds[name] = INT
    for arg in _all_args(node):
        kinds.setdefault(arg.arg, INT)
    return Kinds(
        kinds=kinds, conflicts=conflicts, assigned=assigned, names=names, loops=loops
    )


def _all_args(node: ast.FunctionDef) -> List[ast.arg]:
    args = node.args
    return list(getattr(args, "posonlyargs", ())) + list(args.args)
