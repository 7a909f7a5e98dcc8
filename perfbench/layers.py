"""The traced run: spans and counters around each layer's entry points.

Nothing under ``src/`` is instrumented for this.  :func:`install`
replaces the module attributes that callers look up (``repro.pipeline``'s
``parse_program``, ``repro.report.format_report``, ``ast.walk`` ...)
with wrappers that record a span -- id, parent id, name, start, end --
into a :class:`Recorder`, plus counters read off the wrapped call's
result.  Spans stay in memory until the run ends; a layer's self time is
its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib
import importlib.machinery
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

#: the per-layer metrics, in report order, with their unit and direction
PER_LAYER = (
    ("pyfront.compile_module_s", "s", "lower"),
    ("pyfront.infer_kinds_s", "s", "lower"),
    ("pyfront.ast_nodes_visited", "count", "lower"),
    ("pyfront.unparse_calls", "count", "lower"),
    ("pyfront.lowered_frac", "fraction", "higher"),
    ("pyfront.false_rejections", "count", "lower"),
    ("frontend.parse_s", "s", "lower"),
    ("frontend.lower_s", "s", "lower"),
    ("ssa.construct_s", "s", "lower"),
    ("analysis.loops_s", "s", "lower"),
    ("scalar.optimize_s", "s", "lower"),
    ("scalar.rounds", "count", "lower"),
    ("core.classify_s", "s", "lower"),
    ("core.graph_nodes", "count", "lower"),
    ("core.time_per_node_s", "s", "lower"),
    ("core.unknown_frac", "fraction", "lower"),
    ("ranges.compute_s", "s", "lower"),
    ("ranges.top_frac", "fraction", "lower"),
    ("invariants.compute_s", "s", "lower"),
    ("invariants.paths", "count", "lower"),
    ("invariants.truncated_loops", "count", "lower"),
    ("invariants.yield_frac", "fraction", "higher"),
    ("dependence.graph_s", "s", "lower"),
    ("dependence.graph_builds", "count", "lower"),
    ("dependence.parallelism_s", "s", "lower"),
    ("dependence.doall_frac", "fraction", "higher"),
    ("diagnostics.verify_s", "s", "lower"),
    ("diagnostics.lints_s", "s", "lower"),
    ("report.format_report_s", "s", "lower"),
    ("report.render_json_s", "s", "lower"),
    ("report.render_json_calls", "count", "lower"),
    ("cli.bare_python_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.repro_modules_loaded", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("service.hit_p50_s", "s", "lower"),
    ("service.miss_p50_s", "s", "lower"),
    ("service.run_job_p50_s", "s", "lower"),
    ("service.dispatch_p50_s", "s", "lower"),
    ("service.first_request_s", "s", "lower"),
    ("service.cache_hit_frac", "fraction", "higher"),
    ("service.pool_respawns", "count", "lower"),
    ("obs.trace_overhead_frac", "fraction", "lower"),
    ("obs.worker_observing_s", "s", "lower"),
    ("host.ref_kernel_s", "s", "lower"),
    ("host.scale", "fraction", "higher"),
)

#: counters that must repeat exactly across two traced runs of one seed
DETERMINISTIC = (
    "pyfront.ast_nodes_visited",
    "pyfront.unparse_calls",
    "dependence.graph_builds",
    "cli.repro_modules_loaded",
    "report.render_json_calls",
    "invariants.truncated_loops",
)

#: span name -> per-layer self-time metric it feeds
SPAN_METRICS = {
    "pyfront.compile_module": "pyfront.compile_module_s",
    "pyfront.infer_kinds": "pyfront.infer_kinds_s",
    "frontend.parse": "frontend.parse_s",
    "frontend.lower": "frontend.lower_s",
    "ssa.construct": "ssa.construct_s",
    "analysis.loops": "analysis.loops_s",
    "scalar.pass": "scalar.optimize_s",
    "core.classify": "core.classify_s",
    "ranges.compute": "ranges.compute_s",
    "invariants.compute": "invariants.compute_s",
    "dependence.graph": "dependence.graph_s",
    "dependence.parallelism": "dependence.parallelism_s",
    "diagnostics.verify": "diagnostics.verify_s",
    "diagnostics.lints": "diagnostics.lints_s",
    "report.format_report": "report.format_report_s",
    "report.render_json": "report.render_json_s",
    "obs.observing": "obs.worker_observing_s",
    "cli.main": "cli.main_s",
}


class Recorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []  # (id, parent, name, start_ns, end_ns)
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        covered: Dict[int, int] = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            out[name] += (end - start - covered.get(span_id, 0)) / 1e9
        return dict(out)

    def durations(self, name: str) -> List[float]:
        return [(end - start) / 1e9 for _, _, n, start, end in self.spans if n == name]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, handle)

    @staticmethod
    def load(path: str) -> "Recorder":
        with open(path) as handle:
            data = json.load(handle)
        recorder = Recorder()
        recorder.spans = [tuple(span) for span in data["spans"]]
        recorder.counters.update(data["counters"])
        return recorder

    def merge(self, other: "Recorder") -> None:
        """Add another process's spans (ids are made unique) and counters."""
        offset = max((span[0] for span in self.spans), default=0)
        for span_id, parent, name, start, end in other.spans:
            self.spans.append((span_id + offset, parent + offset if parent else 0,
                               name, start, end))
        self.counters.update(other.counters)


def layer_values(self_s: Dict[str, float], counters: Dict[str, float],
                per: float) -> Dict[str, float]:
    """Per-layer values from span self times and counters, per ``per`` units."""
    out: Dict[str, float] = {}
    for span_name, metric in SPAN_METRICS.items():
        out[metric] = self_s.get(span_name, 0.0) / per
    for key in ("pyfront.ast_nodes_visited", "pyfront.unparse_calls", "scalar.rounds",
                "core.graph_nodes", "invariants.paths", "invariants.truncated_loops",
                "report.render_json_calls"):
        out[key] = counters.get(key, 0) / per

    def ratio(num: str, den: str) -> float:
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    out["core.unknown_frac"] = ratio("core.unknown", "core.classifications")
    out["core.time_per_node_s"] = (self_s.get("core.classify", 0.0) / counters["core.graph_nodes"]
                                   if counters.get("core.graph_nodes") else 0.0)
    out["ranges.top_frac"] = ratio("ranges.top", "ranges.values")
    out["invariants.yield_frac"] = ratio("invariants.yielding_loops", "invariants.loops")
    out["dependence.doall_frac"] = ratio("dependence.doall", "dependence.loops")
    out["dependence.graph_builds"] = ratio("dependence.graph_builds", "core.functions")
    return out


# ----------------------------------------------------------------------
# counters read off results
# ----------------------------------------------------------------------
def _after_classify(counters: Counter, result: Any) -> None:
    counters["core.functions"] += 1
    for summary in result.loops.values():
        counters["core.graph_nodes"] += summary.graph_size
        for cls in summary.classifications.values():
            counters["core.classifications"] += 1
            if type(cls).__name__ == "Unknown":
                counters["core.unknown"] += 1


def _after_ranges(counters: Counter, info: Any) -> None:
    for interval in info.values.values():
        counters["ranges.values"] += 1
        counters["ranges.top"] += bool(interval.is_top)


def _after_invariants(counters: Counter, info: Any) -> None:
    for summary in info.path_summaries.values():
        counters["invariants.loops"] += 1
        counters["invariants.paths"] += len(summary.paths)
        counters["invariants.truncated_loops"] += bool(summary.truncated)
    counters["invariants.yielding_loops"] += len(info.by_loop)


def _after_parallelism(counters: Counter, verdicts: Any) -> None:
    for verdict in verdicts.values():
        counters["dependence.loops"] += 1
        counters["dependence.doall"] += bool(verdict.parallelizable)


def _count(key: str) -> Callable[[Counter, Any], None]:
    def after(counters: Counter, _result: Any) -> None:
        counters[key] += 1
    return after


#: (module, attribute, span name or None for count-only, result hook)
TARGETS = (
    ("repro.pyfront.lower", "compile_module", "pyfront.compile_module", None),
    ("repro.pyfront.lower", "infer_kinds", "pyfront.infer_kinds", None),
    ("repro.pipeline", "parse_program", "frontend.parse", None),
    ("repro.pipeline", "lower_program", "frontend.lower", None),
    ("repro.pipeline", "construct_ssa", "ssa.construct", None),
    ("repro.pipeline", "dominator_tree", "analysis.loops", None),
    ("repro.pipeline", "find_loops", "analysis.loops", None),
    ("repro.pipeline", "classify_function", "core.classify", _after_classify),
    ("repro.scalar.sccp", "run_sccp", "scalar.pass", _count("scalar.rounds")),
    ("repro.scalar.simplify", "simplify_instructions", "scalar.pass", None),
    ("repro.scalar.gvn", "run_gvn", "scalar.pass", None),
    ("repro.scalar.copyprop", "propagate_copies", "scalar.pass", None),
    ("repro.ranges.analysis", "compute_ranges", "ranges.compute", _after_ranges),
    ("repro.invariants.analysis", "compute_invariants", "invariants.compute",
     _after_invariants),
    ("repro.dependence.graph", "build_dependence_graph", "dependence.graph",
     _count("dependence.graph_builds")),
    ("repro.dependence.loopinfo", "analyze_parallelism", "dependence.parallelism",
     _after_parallelism),
    ("repro.diagnostics.verifier", "verify_collect", "diagnostics.verify", None),
    ("repro.diagnostics.lints", "lint_lattice", "diagnostics.lints", None),
    ("repro.diagnostics.lints", "lint_source", "diagnostics.lints", None),
    ("repro.diagnostics.lints", "lint_program", "diagnostics.lints", None),
    ("repro.report", "format_report", "report.format_report", None),
    ("repro.pyfront.driver", "render_corpus_json", "report.render_json",
     _count("report.render_json_calls")),
    ("ast", "unparse", None, _count("pyfront.unparse_calls")),
)

#: the service layer: wrapped in the server process and in its workers
SERVER_TARGETS = (
    ("repro.service.server", "AnalysisServer._dispatch", "service.dispatch", None),
)
WORKER_TARGETS = (
    ("repro.service.worker", "run_job", "service.run_job", None),
)


def _wrap(recorder: Recorder, fn: Callable, name: Optional[str],
          after: Optional[Callable]) -> Callable:
    counters = recorder.counters
    if name is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(counters, result)
            return result
        return counted

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(counters, result)
        return result
    return spanned


def _wrap_walk(recorder: Recorder, walk: Callable) -> Callable:
    counters = recorder.counters

    @functools.wraps(walk)
    def counted_walk(node):
        visited = 0
        try:
            for child in walk(node):
                visited += 1
                yield child
        finally:
            counters["pyfront.ast_nodes_visited"] += visited
    return counted_walk


def _wrap_context(recorder: Recorder, factory: Callable, name: str) -> Callable:
    @functools.wraps(factory)
    @contextlib.contextmanager
    def spanned(*args, **kwargs):
        with recorder.span(name), factory(*args, **kwargs) as value:
            yield value
    return spanned


class _PatchOnImport:
    """A meta-path finder that patches a target module right after it runs.

    Installing must not import anything the program would not: the CLI's
    module count and import time are themselves measured.
    """

    def __init__(self, pending: Dict[str, list]):
        self.pending = pending

    def find_spec(self, name, path, target=None):
        if name not in self.pending:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        callbacks = self.pending.pop(name)
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            for callback in callbacks:
                callback()
        spec.loader.exec_module = exec_and_patch
        return spec


class Installation:
    """The patched attributes, restorable in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []
        self._finder: Optional[_PatchOnImport] = None

    def patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        """Rebind ``attr`` wherever it is ``original``: on ``owner`` and on
        every loaded ``repro`` module that imported it by name."""
        holders = [owner]
        if not isinstance(owner, type):
            holders += [
                module for key, module in list(sys.modules.items())
                if (key == "repro" or key.startswith("repro."))
                and module is not owner
                and getattr(module, attr, None) is original
            ]
        for holder in holders:
            self._undo.append((holder, attr, original))
            setattr(holder, attr, replacement)

    def on_import(self, pending: Dict[str, list]) -> None:
        self._finder = _PatchOnImport(pending)
        sys.meta_path.insert(0, self._finder)

    def restore(self) -> None:
        if self._finder is not None:
            sys.meta_path.remove(self._finder)
            self._finder = None
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def install(recorder: Recorder, targets=TARGETS) -> Installation:
    """Wrap every target, now if its module is loaded, else when it is.

    The caller restores the returned installation.
    """
    done = Installation()
    pending: Dict[str, list] = defaultdict(list)
    for module_name, attr, name, after in targets:
        def apply(module_name=module_name, attr=attr, name=name, after=after):
            owner, leaf, original = _resolve(module_name, attr)
            done.patch(owner, leaf, original, _wrap(recorder, original, name, after))
        if module_name in sys.modules:
            apply()
        else:
            pending[module_name].append(apply)
    if pending:
        done.on_import(pending)
    done.patch(ast, "walk", ast.walk, _wrap_walk(recorder, ast.walk))
    return done


def install_worker(recorder: Recorder) -> Installation:
    """The analysis layers plus ``run_job`` and its ``observing()`` scope."""
    done = install(recorder, TARGETS + WORKER_TARGETS)
    worker = sys.modules["repro.service.worker"]
    done.patch(worker, "observing", worker.observing,
               _wrap_context(recorder, worker.observing, "obs.observing"))
    return done


def traced_worker_main(conn, worker_id, fault_spec=None, budget_spec=None,
                       spans_dir: str = "") -> None:
    """``worker_main`` with the layers wrapped; spans written on exit."""
    from repro.service.worker import worker_main

    recorder = Recorder()
    install_worker(recorder)
    try:
        worker_main(conn, worker_id, fault_spec, budget_spec)
    finally:
        import os

        recorder.dump(os.path.join(spans_dir, f"worker-{os.getpid()}.json"))
