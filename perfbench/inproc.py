"""The in-process workloads: closed-loop passes inside one fresh process.

``pylint-corpus``: per module file, ``pylint_paths([file])`` then
``render_corpus_json`` -- one sample is one module.  ``analyze-loops``:
per DSL program, ``analyze(ranges=True, invariants=True)`` then
``format_report`` -- one sample is one program.  Passes over the whole
input set run back to back until the time is up.

The process prints ``READY`` once imports and one warm-up pass are done
(the parent times process start to that line as ``setup_s``), then
measures and writes its samples as JSON to ``--out``.  ``--trace 1``
alternates untraced and traced passes: the traced ones feed the
per-layer metrics, the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import gen
import layers
from harness import SETUP_REFS, SETUPS, Bench, bare_python, timed_wait
from host import HostRef

#: seconds of samples between two runs of the reference kernel
REF_EVERY_S = 0.25
#: seconds of samples between two bare interpreter starts (x_bare_p50)
BARE_EVERY_S = 0.5


# The units call each layer through its module attribute, never a name
# bound at import, so the traced run's wrappers see every call.
def _pylint_unit(inputs: dict) -> Tuple[List, Callable]:
    import repro.pyfront as pyfront

    modules = inputs["modules"]

    def run(module: dict, facts: dict) -> Tuple[int, List[str]]:
        result = pyfront.pylint_paths([module["path"]])
        payload = json.loads(pyfront.render_corpus_json(result))
        problems = gen.check_corpus_payload(payload, module["functions"],
                                            module["kernels"], facts, module["path"])
        return module["functions"], problems

    return modules, run


def _loops_unit(inputs: dict) -> Tuple[List, Callable]:
    import repro.pipeline as pipeline
    import repro.report as report_module

    def run(program: dict, facts: dict) -> Tuple[int, List[str]]:
        analyzed = pipeline.analyze(program["source"], ranges=True, invariants=True)
        report = report_module.format_report(analyzed)
        problems = []
        if "== dependence graph ==" not in report:
            problems.append(f"{program['kind']}: report lacks the dependence graph")
        origin = analyzed.ssa_info.origin
        got = {}
        for summary in analyzed.result.loops.values():
            for phi in analyzed.ssa.block(summary.label).phis():
                cls = summary.classifications.get(phi.result)
                got[(summary.label, origin.get(phi.result))] = (
                    cls.describe() if cls is not None else "unclassified")
        problems += gen.check_classes(got, program["expected"], program["kind"])
        return 1, problems

    return inputs["programs"], run


UNITS = {"pylint-corpus": _pylint_unit, "analyze-loops": _loops_unit}


def pass_peak_mb() -> float:
    """This process's peak resident set since the last call, in MB.

    The kernel's high-water mark is reset after it is read, so each pass
    reports its own peak: a whole run's peak is whichever pass happened
    to meet a garbage-collection cycle at its largest module, and swung
    by 7% between runs of the same code.  Where the reset is not allowed,
    this is the peak of the whole process so far.
    """
    with open("/proc/self/status") as handle:
        peak_kb = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass
    return peak_kb / 1024.0


def _pass(units, run, samples, facts, failures, host, clock, may_cut=True):
    """One pass; returns the time spent in its samples, or None if the
    deadline cut it."""
    busy = 0.0
    for unit in units:
        if may_cut and time.perf_counter() >= clock["deadline"]:
            return None
        t0 = time.perf_counter()
        count, problems = run(unit, facts)
        t1 = time.perf_counter()
        samples.append((t1 - t0, count, bool(problems)))
        busy += t1 - t0
        failures.extend(problems)
        if host is not None and t1 - clock["last_ref"] >= REF_EVERY_S:
            host.sample()
            if t1 - clock["last_bare"] >= BARE_EVERY_S:
                clock["bare"].append(bare_python(os.environ))
                clock["last_bare"] = t1
            clock["last_ref"] = time.perf_counter()
    return busy


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def write_inputs(bench: Bench) -> str:
    if bench.workload == "pylint-corpus":
        corpus = bench.path("corpus")
        os.makedirs(corpus, exist_ok=True)
        modules = []
        for module in gen.python_corpus(bench.seed):
            path = os.path.join(corpus, module.name + ".py")
            with open(path, "w") as handle:
                handle.write(module.source)
            entry = module.to_json()
            del entry["source"]
            entry["path"] = path
            modules.append(entry)
        inputs = {"modules": modules}
    else:
        inputs = {"programs": [p.to_json() for p in gen.loop_set(bench.seed)]}
    path = bench.path("inputs.json")
    with open(path, "w") as handle:
        json.dump(inputs, handle)
    return path


def run(bench: Bench) -> dict:
    inputs = write_inputs(bench)
    command = [sys.executable, os.path.abspath(__file__), "--workload", bench.workload,
               "--inputs", inputs, "--seconds", str(bench.seconds),
               "--trace", str(int(bench.trace)), "--out", bench.path("samples.json")]
    # one unmeasured set-up writes the bytecode cache the measured ones read
    subprocess.run(command + ["--setup-only"], env=bench.env, check=True,
                   stdout=subprocess.DEVNULL)
    setups: List[float] = []
    bare: List[float] = []
    with bench.host_ref() as host:
        for index in range(1 if bench.trace else SETUPS):
            for _ in range(SETUP_REFS):
                host.sample()
            bare.append(bare_python(bench.env))
            last = index == (0 if bench.trace else SETUPS - 1)
            started = time.perf_counter()
            proc = subprocess.Popen(command + ([] if last else ["--setup-only"]),
                                    env=bench.env, stdout=subprocess.PIPE, text=True)
            line = proc.stdout.readline()
            setups.append(time.perf_counter() - started)
            proc.stdout.read()
            timed_wait(proc)
            proc.stdout.close()
            if line.strip() != "READY" or proc.returncode != 0:
                raise RuntimeError(f"{bench.workload} child failed (exit {proc.returncode})")
        ref = host.samples
    with open(bench.path("samples.json")) as handle:
        child = json.load(handle)
    samples = child["samples"]
    result = {
        "latencies": [s[0] for s in samples],
        "units": sum(s[1] for s in samples),
        "busy_s": sum(s[0] for s in samples),
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s[2]),
        "failures": child["failures"],
        "setups": setups,
        "setup_ref": ref,
        "ref": ref + child["ref"],
        "bare": bare + child["bare"],
        "rss_mb": child["rss_mb"],
    }
    if bench.trace:
        result["layer"] = inprocess_layers(child, result["bare"])
    return result


def inprocess_layers(child: dict, bare: List[float]) -> Dict[str, float]:
    passes = child["passes"]
    traced = len(passes["traced"])
    out = layers.layer_values(child["self_s"], child["counters"], traced)
    facts = child["facts"]
    if facts.get("functions"):
        out["pyfront.lowered_frac"] = facts["lowered"] / facts["functions"]
        out["pyfront.false_rejections"] = facts.get("false_rejections", 0) / traced
    out["obs.trace_overhead_frac"] = (statistics.median(passes["traced"])
                                      / statistics.median(passes["untraced"]))
    out["cli.bare_python_s"] = statistics.median(bare)
    return out


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(UNITS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(args.inputs) as handle:
        inputs = json.load(handle)
    units, run = UNITS[args.workload](inputs)
    warm_failures: List[str] = []
    _pass(units, run, [], defaultdict(int), warm_failures, None, None, may_cut=False)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    samples: List[tuple] = []
    failures: List[str] = list(warm_failures)
    facts = defaultdict(int)
    passes = {"untraced": [], "traced": []}
    peaks: List[float] = []  # per whole pass, MB
    recorder = None
    host_script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "host.py")
    with HostRef(host_script) as host:
        clock = {"deadline": time.perf_counter() + args.seconds,
                 "last_ref": time.perf_counter(), "last_bare": time.perf_counter(),
                 "bare": []}
        host.sample()
        if args.trace:
            recorder = layers.Recorder()
            # alternate until the time is up and each side has one full pass
            done = False
            while not done:
                for side in ("untraced", "traced"):
                    pass_facts = defaultdict(int)
                    mark = (len(samples), len(recorder.spans), dict(recorder.counters))
                    installed = layers.install(recorder) if side == "traced" else None
                    try:
                        wall = _pass(units, run, samples, pass_facts, failures, host,
                                     clock, may_cut=bool(passes[side]))
                    finally:
                        if installed is not None:
                            installed.restore()
                    if wall is None:  # cut short: drop the partial pass
                        del samples[mark[0]:]
                        del recorder.spans[mark[1]:]
                        recorder.counters.clear()
                        recorder.counters.update(mark[2])
                        done = True
                        break
                    passes[side].append(wall)
                    if side == "traced":
                        for key, value in pass_facts.items():
                            facts[key] += value
                done = done or time.perf_counter() >= clock["deadline"]
        else:
            pass_peak_mb()
            while _pass(units, run, samples, facts, failures, host, clock) is not None:
                peaks.append(pass_peak_mb())
        host.sample()
        ref = host.samples

    out = {
        "samples": samples,
        "failures": failures,
        "facts": dict(facts),
        "passes": passes,
        "ref": ref,
        "bare": clock["bare"],
        "rss_mb": (statistics.median(peaks) if peaks
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
    }
    if recorder is not None:
        out["self_s"] = recorder.self_seconds()
        out["counters"] = dict(recorder.counters)
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
