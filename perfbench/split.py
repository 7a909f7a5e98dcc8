"""Where ``repro pylint`` time goes, by layer, on the generated corpus
and on real trees: the evidence behind the ``pylint-corpus`` workload.

Usage, from the root of a checkout::

    python3 perfbench/split.py --seed 1 src/repro

For the ``pylint-corpus`` package of ``--seed`` and for each PATH given,
prints the corpus shape (modules, defs, lines per def, the share of defs
that are methods, the share pyfront lowers) and where one traced pass of
``pylint_paths`` + ``render_corpus_json`` spends its time: pyfront
(``compile_module`` and ``infer_kinds`` self time), the analysis layers
(every other wrapped layer but the renderer), rendering, and the rest
(the driver, file reading, cloning, loop simplification).  Each pass
follows one untraced warm-up pass, which also gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import sys
import time
from typing import List

import gen
import layers
from harness import Bench

PYFRONT = ("pyfront.compile_module", "pyfront.infer_kinds")
RENDER = ("report.render_json",)


def shape(files: List[str]) -> dict:
    lengths, methods = [], 0
    for path in files:
        with open(path) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods += sum(isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                               for child in node.body)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lengths.append(node.end_lineno - node.lineno + 1)
    lengths.sort()
    return {"modules": len(files), "defs": len(lengths),
            "lines_p10": lengths[len(lengths) // 10], "lines_p50": statistics.median(lengths),
            "lines_p90": lengths[9 * len(lengths) // 10], "method_share": methods / len(lengths)}


def split(files: List[str]) -> dict:
    import repro.pyfront as pyfront

    started = time.perf_counter()
    pyfront.render_corpus_json(pyfront.pylint_paths(files))
    untraced = time.perf_counter() - started
    recorder = layers.Recorder()
    installed = layers.install(recorder)
    try:
        with recorder.span("rest"):
            payload = json.loads(pyfront.render_corpus_json(pyfront.pylint_paths(files)))
    finally:
        installed.restore()
    self_s = recorder.self_seconds()
    total = recorder.durations("rest")[0]
    front = sum(self_s.get(name, 0.0) for name in PYFRONT)
    render = sum(self_s.get(name, 0.0) for name in RENDER)
    rest = self_s["rest"]
    return {"lowered_share": payload["lowered"] / payload["functions"],
            "untraced_s": untraced, "traced_s": total,
            "pyfront": front / total, "analysis": (total - front - render - rest) / total,
            "render": render / total, "rest": rest / total}


def py_files(path: str) -> List[str]:
    if os.path.isfile(path):
        return [path]
    return sorted(os.path.join(folder, name) for folder, _, names in os.walk(path)
                  for name in names if name.endswith(".py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("paths", nargs="*")
    args = parser.parse_args()
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    bench = Bench(root, "split", args.seed, 0.0, True)
    try:
        corpus = []
        for module in gen.python_corpus(args.seed):
            corpus.append(bench.path(module.name + ".py"))
            with open(corpus[-1], "w") as handle:
                handle.write(module.source)
        trees = [(f"pylint-corpus seed {args.seed}", corpus)]
        trees += [(path, py_files(path)) for path in args.paths]
        for label, files in trees:
            row = dict(shape(files), **split(files))
            print(f"{label}: " + ", ".join(
                f"{key} {value:.3f}" if isinstance(value, float) else f"{key} {value}"
                for key, value in row.items()))
    finally:
        bench.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
