"""The ``cli-cold`` workload: one fresh ``python -m repro`` per sample.

Samples alternate a DSL report (``repro input.loop``) and a one-file
``repro pylint --format json --out FILE``; each is followed by a bare
``python -c pass``.  Interpreter start plus imports are most of what a
CLI user waits for, so this is the only workload where import-time cuts
show.  The bare start is also this workload's host reference: its
samples are interpreter starts themselves, and they track it far more
closely than the in-process kernel does (see README.md).

``setup_s`` is the first invocation with an empty bytecode cache (a
fresh ``PYTHONPYCACHEPREFIX``), the median of several.  The latency p50
is the geometric mean of the two kinds' medians: the pooled median of a
half-and-half mix of two unlike invocations would sit on the gap between
them and jump from run to run.

Run as a script, this module is the traced run's child: it times
``import repro.cli`` and an in-process ``repro.cli.main(argv)``, counts
the ``repro`` modules loaded, and when traced records the layers' spans
around that call::

    python3 perfbench/cold.py OUT.json STDOUT.txt 0|1 REPRO-ARGS...
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List

import gen
import layers
from harness import SETUP_REFS, SETUPS, bare_python, timed_wait
from host import NOMINAL_BARE_S

_CLASS_LINE = re.compile(r"\s+([A-Za-z_]\w*)\.(\d+)\s+(\S.*)$")
_LOOP_LINE = re.compile(r"\s*loop (\w+) \(depth")


def report_classes(text: str) -> Dict[tuple, str]:
    """(loop, variable) -> class text of the variable's header phi, read
    off a report: the lowest-numbered SSA name listed in the loop."""
    found: Dict[tuple, tuple] = {}
    loop = None
    for line in text.splitlines():
        match = _LOOP_LINE.match(line)
        if match:
            loop = match.group(1)
            continue
        if line.startswith("=="):
            loop = None
        match = _CLASS_LINE.match(line)
        if loop and match:
            key = (loop, match.group(1))
            number = int(match.group(2))
            if key not in found or number < found[key][0]:
                found[key] = (number, match.group(3).strip())
    return {key: described for key, (_, described) in found.items()}


class Inputs:
    """The seeded input files and how to check each invocation's output."""

    def __init__(self, bench):
        rng = random.Random(bench.seed)
        self.program = gen.wolfe_program(rng)
        self.module = gen.python_module(rng, "cli_module", 6, 1, 0)
        self.loop_path = bench.path("input.loop")
        self.py_path = bench.path("cli_module.py")
        self.json_path = bench.path("pylint.json")
        with open(self.loop_path, "w") as handle:
            handle.write(self.program.source + "\n")
        with open(self.py_path, "w") as handle:
            handle.write(self.module.source)
        self.argv = {
            "report": [self.loop_path],
            "pylint": ["pylint", "--format", "json", "--out", self.json_path, self.py_path],
        }

    def check(self, kind: str, stdout: str, facts) -> List[str]:
        facts["checked"] += 1
        if kind == "report":
            expected = self.program.to_json()["expected"]
            return gen.check_classes(report_classes(stdout), expected, "report")
        with open(self.json_path) as handle:
            payload = json.load(handle)
        os.remove(self.json_path)
        return gen.check_corpus_payload(payload, self.module.functions,
                                        self.module.kernels, facts, "pylint")


def _invoke(bench, inputs: Inputs, kind: str, env: dict, facts):
    """One timed invocation: (wall seconds, peak RSS MB, problems)."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "repro"] + inputs.argv[kind],
                            env=env, cwd=bench.root, stdout=subprocess.PIPE, text=True)
    stdout = proc.stdout.read()
    rss = timed_wait(proc)
    wall = time.perf_counter() - started
    proc.stdout.close()
    if proc.returncode != 0:
        return wall, rss, [f"{kind}: exit code {proc.returncode}"]
    return wall, rss, inputs.check(kind, stdout, facts)


def run(bench) -> dict:
    inputs = Inputs(bench)
    warm_env = bench.env
    facts = defaultdict(int)
    failures: List[str] = []
    setups: List[float] = []
    walls: Dict[str, List[float]] = {"report": [], "pylint": []}
    bare: List[float] = []
    setup_ref: List[float] = []
    layer_samples: Dict[str, list] = {"untraced": [], "traced": []}
    rss = 0.0
    attempted = failed = 0
    for index in range(0 if bench.trace else SETUPS):
        setup_ref += [bare_python(warm_env) for _ in range(SETUP_REFS)]
        cold_env = dict(bench.env, PYTHONPYCACHEPREFIX=bench.path(f"pyc-cold-{index}"))
        wall, _, problems = _invoke(bench, inputs, "report", cold_env, facts)
        setups.append(wall)
        failures += problems
    for kind in walls:  # fill the warm bytecode cache
        failures += _invoke(bench, inputs, kind, warm_env, facts)[2]
    deadline = time.perf_counter() + bench.seconds
    count = 0
    # whole cycles only: each kind (and, traced, each side) equally often
    cycle = 4 if bench.trace else 2
    while time.perf_counter() < deadline or count % cycle or count < cycle:
        kind = ("report", "pylint")[count % 2]
        if bench.trace:
            side = ("untraced", "traced")[(count // 2) % 2]
            sample, problems = _traced_invoke(bench, inputs, kind, warm_env, facts,
                                              side == "traced")
            layer_samples[side].append((kind, sample))
        else:
            wall, peak, problems = _invoke(bench, inputs, kind, warm_env, facts)
            walls[kind].append(wall)
            rss = max(rss, peak)
        count += 1
        attempted += 1
        failed += bool(problems)
        failures += problems
        bare.append(bare_python(warm_env))
    result = {
        "setups": setups,
        "setup_ref": setup_ref,
        "ref": bare,
        "nominal_ref_s": NOMINAL_BARE_S,
        "bare": bare,
        "rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if bench.trace:
        result["layer"] = _layers(layer_samples, bare, facts)
    else:
        latencies = walls["report"] + walls["pylint"]
        result.update(
            latencies=latencies,
            units=len(latencies),
            busy_s=sum(latencies),
            p50_raw=math.sqrt(statistics.median(walls["report"])
                              * statistics.median(walls["pylint"])),
        )
    return result


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _traced_invoke(bench, inputs: Inputs, kind: str, env: dict, facts, traced: bool):
    out = bench.path("child.json")
    stdout_path = bench.path("child.out")
    command = [sys.executable, os.path.abspath(__file__), out, stdout_path,
               "1" if traced else "0"] + inputs.argv[kind]
    proc = subprocess.run(command, env=env, cwd=bench.root)
    if proc.returncode != 0:
        return None, [f"{kind}: traced child exit code {proc.returncode}"]
    with open(out) as handle:
        sample = json.load(handle)
    with open(stdout_path) as handle:
        stdout = handle.read()
    if sample["exit"] != 0:
        return sample, [f"{kind}: main returned {sample['exit']}"]
    return sample, inputs.check(kind, stdout, facts)


def _layers(samples: Dict[str, list], bare: List[float], facts) -> Dict[str, float]:
    plain = [s for _, s in samples["untraced"] if s]
    traced = [s for _, s in samples["traced"] if s]
    recorder = layers.Recorder()
    for sample in traced:
        part = layers.Recorder()
        part.spans = [tuple(span) for span in sample["spans"]]
        part.counters.update(sample["counters"])
        recorder.merge(part)
    out = layers.layer_values(recorder.self_seconds(), recorder.counters, len(traced))
    out["cli.bare_python_s"] = statistics.median(bare)
    out["cli.import_s"] = statistics.median(s["import_s"] for s in plain)
    out["cli.main_s"] = statistics.median(s["main_s"] for s in plain)
    reports = [s["modules"] for kind, s in samples["untraced"] if s and kind == "report"]
    out["cli.repro_modules_loaded"] = reports[0] if reports else 0
    out["obs.trace_overhead_frac"] = (statistics.median(s["main_s"] for s in traced)
                                      / out["cli.main_s"])
    if facts.get("functions"):
        out["pyfront.lowered_frac"] = facts["lowered"] / facts["functions"]
        out["pyfront.false_rejections"] = facts.get("false_rejections", 0) / facts["checked"]
    return out


def _child(out: str, stdout_path: str, traced: bool, argv: List[str]) -> int:
    recorder = layers.Recorder()
    installed = layers.install(recorder) if traced else None
    started = time.perf_counter()
    import repro.cli

    imported = time.perf_counter()
    with open(stdout_path, "w") as handle, contextlib.redirect_stdout(handle):
        with recorder.span("cli.main"):
            code = repro.cli.main(argv)
    finished = time.perf_counter()
    if installed is not None:
        installed.restore()
    modules = sum(1 for name in sys.modules if name == "repro" or name.startswith("repro."))
    with open(out, "w") as handle:
        json.dump({"exit": code, "import_s": imported - started,
                   "main_s": finished - imported, "modules": modules,
                   "spans": recorder.spans if traced else [],
                   "counters": dict(recorder.counters)}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:]))
