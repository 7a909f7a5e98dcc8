"""The multi-walk kind inference and loop-variable checks, kept as a reference.

pyfront once walked each function twice to infer kinds and once more
per ``for`` loop to check loop variables.  ``repro.pyfront`` now does it
in one walk; ``test_single_pass.py`` holds that walk to these, the
straightforward versions, on every ``def`` of the repository.  Both
leave annotations out: they are not uses of a name.
"""

import ast
from typing import Dict, List, Set, Tuple

from repro.pyfront.lower import _range_call, _Validator
from repro.pyfront.typeinfer import INT, LIST, Kinds


def walk(node: ast.AST):
    """``ast.walk`` without the annotations' subtrees."""
    skip = set()
    for child in ast.walk(node):
        if isinstance(child, (ast.arg, ast.AnnAssign)):
            annotation = child.annotation
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = child.returns
        else:
            continue
        if annotation is not None:
            skip.update(id(inner) for inner in ast.walk(annotation))
    return [child for child in ast.walk(node) if id(child) not in skip]


def infer_kinds(node: ast.FunctionDef) -> Kinds:
    """Kinds from two full walks: list positions first, then int uses."""
    int_uses: Dict[str, str] = {}
    list_uses: Dict[str, str] = {}
    assigned: Set[str] = set()
    claimed: Set[int] = set()

    def list_use(name_node: ast.Name, why: str) -> None:
        list_uses.setdefault(name_node.id, why)
        claimed.add(id(name_node))

    for child in walk(node):
        if isinstance(child, ast.Subscript) and isinstance(child.value, ast.Name):
            list_use(child.value, "subscripted")
        elif isinstance(child, ast.Call):
            if isinstance(child.func, ast.Name):
                claimed.add(id(child.func))
                if (
                    child.func.id == "len"
                    and len(child.args) == 1
                    and isinstance(child.args[0], ast.Name)
                ):
                    list_use(child.args[0], "passed to len()")
        elif isinstance(child, ast.For) and isinstance(child.iter, ast.Name):
            list_use(child.iter, "iterated over")

    for child in walk(node):
        if not isinstance(child, ast.Name):
            continue
        if isinstance(child.ctx, ast.Store):
            assigned.add(child.id)
            if id(child) not in claimed:
                int_uses.setdefault(child.id, "assigned")
        elif id(child) not in claimed:
            int_uses.setdefault(child.id, "used as an integer")

    kinds: Dict[str, str] = {}
    conflicts: List[Tuple[str, str, str]] = []
    for name in sorted(set(int_uses) | set(list_uses)):
        if name in list_uses:
            kinds[name] = LIST
            if name in int_uses:
                conflicts.append((name, int_uses[name], list_uses[name]))
        else:
            kinds[name] = INT
    args = node.args
    for arg in list(getattr(args, "posonlyargs", ())) + list(args.args):
        kinds.setdefault(arg.arg, INT)
    return Kinds(kinds=kinds, conflicts=conflicts, assigned=assigned)


class Validator(_Validator):
    """The validator with the walk-per-loop loop-variable check."""

    def check_loop_targets(self) -> None:
        loops = [
            child
            for child in walk(self.node)
            if isinstance(child, ast.For) and isinstance(child.target, ast.Name)
        ]
        shielded: Dict[str, set] = {}
        for loop in loops:
            ids = shielded.setdefault(loop.target.id, set())
            for body_stmt in loop.body:
                for child in walk(body_stmt):
                    if isinstance(child, ast.Name):
                        ids.add(id(child))
        for loop in loops:
            var = loop.target.id
            subtree = {
                id(child)
                for child in walk(loop)
                if isinstance(child, ast.Name)
            }
            end = (loop.end_lineno or loop.lineno, loop.end_col_offset or 0)
            is_range = _range_call(loop.iter) is not None
            for child in walk(self.node):
                if not isinstance(child, ast.Name) or child.id != var:
                    continue
                if isinstance(child.ctx, ast.Store):
                    if id(child) in subtree and child is not loop.target:
                        self.problem(
                            "PYF405", "loop-variable-reassigned",
                            f"loop variable {var!r} is reassigned inside "
                            f"its loop (line {child.lineno}); the counted "
                            "shape would diverge from CPython",
                        )
                elif is_range and id(child) not in subtree:
                    position = (child.lineno, child.col_offset)
                    if position > end and id(child) not in shielded.get(var, ()):
                        self.problem(
                            "PYF405", "loop-variable-read-after-loop",
                            f"loop variable {var!r} is read after its loop "
                            f"(line {child.lineno}); its post-loop value "
                            "differs from CPython's",
                        )
