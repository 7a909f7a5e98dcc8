"""The real-Python corpus driver behind ``repro pylint``.

Walks packages, compiles every function the frontend can carry
(:mod:`repro.pyfront.lower`), and runs each one through the full
analysis pipeline: classification, value ranges (RNG6xx findings on real
code), polynomial invariants, dependence testing, and why-not-DOALL
attribution.  Functions the frontend cannot lower degrade to ``PYF4xx``
findings instead of being silently dropped, so the corpus report always
accounts for every ``def`` it saw.

The zero-exception contract of ``repro pylint`` lives here: every
per-function step is isolated, so one pathological function (or one
analysis bug) costs exactly that function, never the corpus run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.diagnostics.diagnostic import Diagnostic, DiagnosticCollector
from repro.pyfront.lower import CompiledFunction, compile_module

#: hint attached to PYF4xx findings (instead of the RES5xx default)
_HINT = "see docs/PYTHON.md for the supported Python subset"

__all__ = [
    "CorpusResult",
    "FunctionOutcome",
    "pylint_paths",
    "render_corpus_json",
    "render_corpus_text",
]


@dataclass
class FunctionOutcome:
    """What happened to one real-Python function."""

    origin: str
    qualname: str
    ok: bool
    #: per-loop rows: header label, DOALL verdict, blocker slugs, and the
    #: classification (``describe()``) of every source-level name
    loops: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class CorpusResult:
    """Everything one ``repro pylint`` run learned."""

    files: int = 0
    functions: int = 0
    lowered: int = 0
    degraded: int = 0
    outcomes: List[FunctionOutcome] = field(default_factory=list)
    collector: DiagnosticCollector = field(default_factory=DiagnosticCollector)
    #: (collector size, its sorted findings) as of the last sort
    _sorted: Optional[Tuple[int, List[Diagnostic]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def findings(self) -> List[Diagnostic]:
        """The collector's findings, sorted; sorted again only if it grew."""
        size = len(self.collector)
        if self._sorted is None or self._sorted[0] != size:
            self._sorted = (size, self.collector.sorted())
        return self._sorted[1]


def _publish(
    local: DiagnosticCollector, out: DiagnosticCollector, origin: str
) -> None:
    out.extend(
        d.with_origin(origin) if d.origin is None else d for d in local
    )


def _skip_record(cf: CompiledFunction) -> Dict[str, Any]:
    """A flight-recorder record for a function that never lowered.

    Shaped to satisfy ``repro stats --strict`` validation, so a corpus
    run's store aggregates cleanly even when most of a real package
    degrades (the expected steady state on arbitrary code).
    """
    from repro.obs.runlog import RUNLOG_SCHEMA, source_fingerprint

    return {
        "schema": RUNLOG_SCHEMA,
        "ts": time.time(),
        "origin": cf.origin,
        "source_lang": "python",
        "function": cf.qualname,
        "fingerprint": source_fingerprint(cf.source),
        "loops": [],
        "classes": {},
        "parallel": {"doall": 0, "serial": 0, "undecided": 0},
        "blocked": {},
        "degradations": [
            {
                "phase": d.phase,
                "code": d.code,
                "action": d.action,
                "scope": d.scope,
                "diag_code": d.diag_code,
                "message": d.message,
            }
            for d in cf.degradations
        ],
        "ranges": None,
        "invariants": None,
    }


def _dependence_graph(result):
    """The function's dependence graph, or None when building it failed."""
    from repro.dependence.graph import build_dependence_graph

    try:
        return build_dependence_graph(result)
    except Exception:  # noqa: BLE001 - verdicts degrade to undecided
        return None


def _loop_rows(program, graph) -> List[Dict[str, Any]]:
    """Per-loop verdicts + classifications for the corpus report; every
    verdict is undecided when there is no dependence ``graph``."""
    rows: List[Dict[str, Any]] = []
    result = program.result
    verdicts: Dict[str, Any] = {}
    if result.loops and graph is not None:
        try:
            from repro.dependence.loopinfo import analyze_parallelism

            verdicts = analyze_parallelism(result, graph)
        except Exception:  # noqa: BLE001 - verdicts degrade to undecided
            verdicts = {}
    for summary in sorted(
        result.loops.values(), key=lambda s: (s.loop.depth, s.label)
    ):
        verdict = verdicts.get(summary.label)
        classes = {
            name: cls.describe()
            for name, cls in sorted(summary.classifications.items())
            if not name.startswith("$")
        }
        rows.append(
            {
                "header": summary.label,
                "parallel": None if verdict is None else bool(
                    verdict.parallelizable
                ),
                "blocked_by": []
                if verdict is None
                else [b.to_json()["reason"] for b in verdict.blockers],
                "classes": classes,
            }
        )
    return rows


def _analyze_compiled(
    cf: CompiledFunction,
    out: DiagnosticCollector,
    ranges: bool,
    invariants: bool,
    budget,
) -> FunctionOutcome:
    """Full pipeline over one lowered function; never raises."""
    from repro.analysis.loopsimplify import simplify_loops
    from repro.diagnostics.lints import lint_lattice
    from repro.diagnostics.lints import lint_source as lint_src
    from repro.diagnostics.verifier import verify_collect
    from repro.ir.clone import clone_function
    from repro.obs import runlog
    from repro.pipeline import analyze_function
    from repro.resilience.isolation import diagnostics_of

    local = DiagnosticCollector()
    if cf.degradations:
        diagnostics_of(cf.degradations, local, origin=cf.origin, hint=_HINT)
    named = clone_function(cf.function)
    try:
        simplify_loops(named)
    except Exception:  # noqa: BLE001 - analyze the raw shape instead
        named = clone_function(cf.function)
    with runlog.origin(cf.origin), runlog.source_lang("python"):
        program = analyze_function(
            named,
            source=cf.source,
            ranges=ranges,
            invariants=invariants,
            budget=budget,
        )
    seen = {(d.code, d.message) for d in local}
    for diagnostic in verify_collect(program.ssa, ssa=True):
        if (diagnostic.code, diagnostic.message) not in seen:
            local.diagnostics.append(diagnostic)
    if program.degradations:
        diagnostics_of(program.degradations, local)
    # one dependence graph feeds both SRC405 and the loop verdicts
    graph = _dependence_graph(program.result)
    # static lints only: execution lints re-interpret every sample, which
    # a corpus-scale walk cannot afford (and the differential oracle
    # already holds lowering to CPython semantics)
    lint_lattice(program, local)
    lint_src(program, local, graph=graph)
    if ranges and program.result.ranges is not None:
        from repro.ranges import check_ranges

        check_ranges(program.result, program.result.ranges, local)
    _publish(local, out, cf.origin)
    return FunctionOutcome(
        origin=cf.origin,
        qualname=cf.qualname,
        ok=True,
        loops=_loop_rows(program, graph),
    )


def pylint_paths(
    paths: Sequence[str],
    collector: Optional[DiagnosticCollector] = None,
    ranges: bool = True,
    invariants: bool = True,
    budget=None,
) -> CorpusResult:
    """Lint every ``def`` of every Python file under ``paths``.

    Never raises past a function: frontend degradations become PYF4xx
    findings, analysis failures become RES5xx findings, and an
    unreadable file becomes one PYF406 finding.  Callers that want
    flight-recorder output wrap the call in ``runlog.recording()`` --
    per-function records are captured inside the pipeline; functions
    that never lowered get an explicit skip record so the store accounts
    for the whole corpus.
    """
    from repro.diagnostics.driver import discover_files
    from repro.obs import metrics as _metrics
    from repro.obs import runlog
    from repro.resilience.isolation import diagnostics_of

    result = CorpusResult(
        collector=collector if collector is not None else DiagnosticCollector()
    )
    for path in discover_files(paths, (".py",)):
        result.files += 1
        try:
            with open(path, encoding="utf-8", errors="replace") as handle:
                text = handle.read()
        except OSError as error:
            result.collector.emit(
                "PYF406", f"cannot read {path!r}: {error}", origin=path
            )
            continue
        module = compile_module(text, origin=path)
        if module.error is not None:
            diagnostics_of(
                [module.error], result.collector, origin=path, hint=_HINT
            )
            continue
        for cf in module.functions:
            result.functions += 1
            _metrics.inc("pyfront.functions")
            with _metrics.isolated():
                if cf.ok:
                    try:
                        outcome = _analyze_compiled(
                            cf, result.collector, ranges, invariants, budget
                        )
                    except Exception as error:  # noqa: BLE001 - contract
                        result.collector.emit(
                            "LNT001",
                            f"analysis failed: {error}",
                            origin=cf.origin,
                            function=cf.qualname,
                        )
                        outcome = FunctionOutcome(
                            origin=cf.origin, qualname=cf.qualname, ok=False
                        )
                else:
                    _metrics.inc("pyfront.degraded")
                    diagnostics_of(
                        cf.degradations,
                        result.collector,
                        origin=cf.origin,
                        hint=_HINT,
                    )
                    writer = runlog.active()
                    if writer is not None:
                        try:
                            writer.write(_skip_record(cf))
                        except OSError:
                            pass
                    outcome = FunctionOutcome(
                        origin=cf.origin, qualname=cf.qualname, ok=False
                    )
            if outcome.ok:
                result.lowered += 1
            else:
                result.degraded += 1
            result.outcomes.append(outcome)
    return result


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_corpus_text(result: CorpusResult) -> str:
    """The corpus report: ingestion stats, loop verdicts, findings."""
    from repro.diagnostics import render_text

    lines: List[str] = []
    lines.append("== corpus ==")
    lines.append(
        f"  files: {result.files}, functions: {result.functions} "
        f"({result.lowered} lowered, {result.degraded} degraded)"
    )
    rows = [
        (outcome, row)
        for outcome in result.outcomes
        for row in outcome.loops
    ]
    lines.append("")
    lines.append("== loops ==")
    if not rows:
        lines.append("  none lowered")
    for outcome, row in rows:
        if row["parallel"] is None:
            verdict = "undecided"
        elif row["parallel"]:
            verdict = "DOALL"
        else:
            verdict = "serial[" + ",".join(row["blocked_by"]) + "]"
        interesting = {
            name: described
            for name, described in row["classes"].items()
            if not described.startswith("Unknown")
        }
        shown = ", ".join(
            f"{name}: {described}" for name, described in interesting.items()
        )
        lines.append(
            f"  {outcome.origin} {outcome.qualname} {row['header']}: "
            f"{verdict}" + (f"  {shown}" if shown else "")
        )
    lines.append("")
    lines.append("== findings ==")
    lines.append(render_text(result.findings))
    return "\n".join(lines)


def render_corpus_json(result: CorpusResult) -> str:
    """The corpus report as one JSON document (the CI artifact shape)."""
    import json

    payload = {
        "files": result.files,
        "functions": result.functions,
        "lowered": result.lowered,
        "degraded": result.degraded,
        "loops": [
            {
                "origin": outcome.origin,
                "function": outcome.qualname,
                **row,
            }
            for outcome in result.outcomes
            for row in outcome.loops
        ],
        "findings": [d.to_dict() for d in result.findings],
        "counts": _severity_counts(result.findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _severity_counts(findings: Sequence[Diagnostic]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for diagnostic in findings:
        key = str(diagnostic.severity)
        counts[key] = counts.get(key, 0) + 1
    return counts
