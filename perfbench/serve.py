"""The ``serve-mixed`` workload: ``repro serve --workers 2`` under a
closed-loop client.

One client process drives the daemon over two connections, each sending
its next request when the last one is answered.  The mix (``gen.MIX``,
the shares of ``benchmarks/loadtest.py``): unique DSL programs (cache
misses), repeats of recent ones (cache hits), ``language: "python"``
modules, three-program batches, DSL sources the frontend rejects, and
malformed requests that must get their specified error.  This is the
only workload through the service layer: framing, forked-worker
dispatch, the cache and the breaker.

``setup_s`` is boot until ``ready`` reports every worker alive, the
median of several boots.  While the host reference kernel runs, both
connections are held idle, so the kernel never competes with the
server for a core.

Run as a script, this module hosts the traced run's server: it wraps
``AnalysisServer._dispatch`` in the server and, through the pool's
worker entry point, ``run_job`` and the analysis layers in each worker;
every process writes its spans when it drains.
"""

from __future__ import annotations

import functools
import glob
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

import gen
import layers
from harness import SETUP_REFS, SETUPS, bare_python

#: client connections, each a closed loop; no more than the host's cores
CONNECTIONS = 2


def _connect(address):
    """A connection through the repository's own client, the one
    ``benchmarks/loadtest.py`` drives the daemon with."""
    from repro.service.client import ServiceClient

    return ServiceClient(*address, timeout_s=60).connect()


def _descendants(pid: int) -> List[int]:
    children = defaultdict(list)
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children[int(fields[1])].append(int(stat.split("/")[2]))
    out, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def _peak_rss_mb(pids: List[int]) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total / 1024.0


class Server:
    """One ``repro serve`` process tree, booted and stopped by the client."""

    def __init__(self, bench, spans_dir: Optional[str] = None):
        args = ["serve", "--port", "0", "--workers", "2"]
        if spans_dir is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [sys.executable, os.path.abspath(__file__), spans_dir] + args[1:]
        self.bench = bench
        self.command = command
        self.proc: Optional[subprocess.Popen] = None
        self.address = None

    def boot(self) -> float:
        """Start and wait until ready; returns the seconds that took."""
        started = time.perf_counter()
        self.stderr = open(self.bench.path(f"serve-{time.monotonic_ns()}.err"), "w")
        self.proc = subprocess.Popen(self.command, env=self.bench.env, cwd=self.bench.root,
                                     stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            raise RuntimeError(f"repro serve did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))
        probe = _connect(self.address)
        try:
            while not probe.request({"op": "ready"}).get("ready"):
                time.sleep(0.005)
        finally:
            probe.close()
        return time.perf_counter() - started

    def tree(self) -> List[int]:
        return [self.proc.pid] + _descendants(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for every process of the tree."""
        if self.proc is None:
            return
        pids = self.tree()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + 10
        for pid in pids[1:]:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.01)
            if os.path.exists(f"/proc/{pid}"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.proc.stdout.close()
        self.stderr.close()
        self.proc = None


class Gate:
    """Holds the connections idle while the host kernel runs."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active = 0
        self._paused = False
        self.paused_s = 0.0

    def enter(self) -> None:
        with self._cond:
            while self._paused:
                self._cond.wait()
            self._active += 1

    def leave(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    def quiet(self, action) -> None:
        """Run ``action`` with no request in flight.  Only the time from
        the last request's end on is paused: draining is request time."""
        with self._cond:
            self._paused = True
            while self._active:
                self._cond.wait()
        started = time.perf_counter()
        try:
            action()
        finally:
            with self._cond:
                self._paused = False
                self._cond.notify_all()
            self.paused_s += time.perf_counter() - started


def _loop_classes(loops: List[dict]) -> Dict[tuple, str]:
    """(loop, variable) -> class of its header phi: the lowest-numbered
    SSA name of the variable classified in the loop."""
    found: Dict[tuple, tuple] = {}
    for row in loops:
        for name, described in row["classes"].items():
            var, _, number = name.rpartition(".")
            if not number.isdigit():
                continue
            key = (row["header"], var)
            if key not in found or int(number) < found[key][0]:
                found[key] = (int(number), described)
    return {key: described for key, (_, described) in found.items()}


def check(kind: str, response: dict, expectation, facts) -> List[str]:
    """Problems with one response, judged against how its request was built."""
    if kind == "malformed":
        error = response.get("error") or {}
        if response.get("status") != "error" or error.get("code") != expectation:
            return [f"malformed request answered {response.get('status')!r} "
                    f"{error.get('code')!r}, specified {expectation!r}"]
        return []
    results = response.get("results") or []
    if kind == "bad":
        codes = [(r.get("error") or {}).get("code") for r in results]
        if response.get("status") != "degraded" or codes != [expectation]:
            return [f"bad source answered {response.get('status')!r} {codes}, "
                    f"specified degraded {expectation!r}"]
        return []
    if kind == "python":
        # a module with functions outside pyfront's subset answers degraded
        want = ("degraded" if expectation.functions > len(expectation.kernels) else "ok", 1)
    else:
        want = ("ok", len(expectation))
    if (response.get("status"), len(results)) != want:
        return [f"{kind}: status {response.get('status')!r} with {len(results)} results, "
                f"expected {want}"]
    problems = []
    for result in results:
        facts["programs"] += 1
        facts["cached"] += bool(result.get("cached"))
    if kind == "python":
        record = results[0]["record"]
        functions = record["functions"]
        if functions["total"] != expectation.functions:
            problems.append(f"python: {functions['total']} defs, {expectation.functions} written")
        facts["functions"] += functions["total"]
        facts["lowered"] += functions["lowered"]
        verdicts = {row["header"]: row["parallel"] for row in record["loops"]}
        for qualname, headers in expectation.loop_headers().items():
            typed, built = expectation.kernels[qualname]
            if any(header not in verdicts for header in headers):
                if typed:  # outside pyfront's subset today: counted, not failed
                    facts["false_rejections"] += 1
                else:
                    problems.append(f"python: in-subset {qualname} did not lower")
            elif [verdicts[header] for header in headers] != built:
                problems.append(f"python: {qualname} DOALL verdicts "
                                f"{[verdicts[h] for h in headers]}, built {built}")
        return problems
    for result, program in zip(results, expectation):
        expected = program.to_json()["expected"]
        problems += gen.check_classes(_loop_classes(result["record"]["loops"]), expected,
                                      f"{kind} {program.kind}")
    return problems


def _drive(server: Server, bench, host, seconds: float = 0.0, requests: int = 0) -> dict:
    """Closed-loop requests on each connection, for ``seconds`` or for
    ``requests`` per connection; the kernel runs between them."""
    lock = threading.Lock()
    gate = Gate()
    samples: List[tuple] = []  # (kind, seconds, failed)
    failures: List[str] = []
    facts = defaultdict(int)
    stop = threading.Event()

    def client(stream) -> None:
        conn = _connect(server.address)
        try:
            sent = 0
            while not stop.is_set() and (not requests or sent < requests):
                kind, payload, expectation = next(stream)
                gate.enter()
                try:
                    started = time.perf_counter()
                    response = conn.request(payload)
                    elapsed = time.perf_counter() - started
                finally:
                    gate.leave()
                sent += 1
                with lock:
                    problems = check(kind, response, expectation, facts)
                    samples.append((kind, elapsed, bool(problems)))
                    failures.extend(problems)
        except Exception as error:  # noqa: BLE001 - reported as a failure
            with lock:
                failures.append(f"client: {type(error).__name__}: {error}")
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(gen.request_stream(bench.seed, k),))
               for k in range(CONNECTIONS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    deadline = started + seconds
    bare: List[float] = []

    def pause(tick: int) -> None:
        host.sample()
        if tick % 2 == 0:  # a bare interpreter start about every half second
            bare.append(bare_python(bench.env))

    tick = 0
    while any(t.is_alive() for t in threads) and (requests or time.perf_counter() < deadline):
        time.sleep(0.25)
        gate.quiet(functools.partial(pause, tick))
        tick += 1
    stop.set()
    for thread in threads:
        thread.join()
    busy = time.perf_counter() - started - gate.paused_s
    stats_conn = _connect(server.address)
    try:
        stats = stats_conn.request({"op": "stats"})
    finally:
        stats_conn.close()
    return {"samples": samples, "failures": failures, "facts": facts, "busy_s": busy,
            "stats": stats, "rss_mb": _peak_rss_mb(server.tree()), "bare": bare}


def run(bench) -> dict:
    sys.path.insert(0, os.path.join(bench.root, "src"))  # for the client
    setups: List[float] = []
    bare: List[float] = []
    with bench.host_ref() as host:
        # one unmeasured boot writes the bytecode cache the measured ones read
        for index in range(1 if bench.trace else SETUPS):
            for _ in range(SETUP_REFS):
                host.sample()
            bare.append(bare_python(bench.env))
            server = Server(bench)
            try:
                boot = server.boot()
            finally:
                server.stop()
            if index:
                setups.append(boot)
        host.sample()
        bare.append(bare_python(bench.env))
        if bench.trace:
            return _traced(bench, host, bare)
        setup_ref = list(host.samples)
        server = Server(bench)
        try:
            setups.append(server.boot())
            driven = _drive(server, bench, host, seconds=bench.seconds)
        finally:
            server.stop()
        ref = host.samples
    samples = driven["samples"]
    return {
        "latencies": [s[1] for s in samples],
        "units": len(samples),
        "busy_s": driven["busy_s"],
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s[2]),
        "failures": driven["failures"],
        "setups": setups,
        "setup_ref": setup_ref,
        "ref": ref,
        "bare": bare + driven["bare"],
        "rss_mb": driven["rss_mb"],
    }


#: requests per connection and second of --seconds on each side of the
#: traced run: a count fixed by the arguments, so the per-request
#: counters repeat exactly, and about --seconds long in all
TRACED_REQUESTS_PER_S = 60


def _traced(bench, host, bare: List[float]) -> dict:
    """The same requests untraced, then traced: per-layer values per request."""
    spans_dir = bench.path("spans")
    os.makedirs(spans_dir, exist_ok=True)
    runs = {}
    for side, spans in (("untraced", None), ("traced", spans_dir)):
        server = Server(bench, spans)
        try:
            server.boot()
            runs[side] = _drive(server, bench, host,
                                requests=int(TRACED_REQUESTS_PER_S * bench.seconds))
        finally:
            server.stop()
    recorder = layers.Recorder()
    for path in sorted(glob.glob(os.path.join(spans_dir, "*.json"))):
        recorder.merge(layers.Recorder.load(path))
    traced = runs["traced"]
    samples = traced["samples"]
    analyze = [s for s in samples if s[0] != "malformed"]

    def median_of(kind: str) -> float:
        values = [s[1] for s in samples if s[0] == kind]
        return statistics.median(values) if values else 0.0

    out = layers.layer_values(recorder.self_seconds(), recorder.counters,
                                        max(1, len(analyze)))
    facts = traced["facts"]
    out.update({
        "service.hit_p50_s": median_of("hit"),
        "service.miss_p50_s": median_of("miss"),
        "service.run_job_p50_s": statistics.median(recorder.durations("service.run_job")),
        "service.dispatch_p50_s": statistics.median(recorder.durations("service.dispatch")),
        "service.first_request_s": samples[0][1] if samples else 0.0,
        "service.cache_hit_frac": facts["cached"] / max(1, facts["programs"]),
        "service.pool_respawns": traced["stats"]["pool"]["respawns"],
        "cli.bare_python_s": statistics.median(
            bare + runs["untraced"]["bare"] + traced["bare"]),
        "obs.trace_overhead_frac": (
            (traced["busy_s"] / max(1, len(samples)))
            / (runs["untraced"]["busy_s"] / max(1, len(runs["untraced"]["samples"])))),
    })
    if facts.get("functions"):
        out["pyfront.lowered_frac"] = facts["lowered"] / facts["functions"]
        out["pyfront.false_rejections"] = facts["false_rejections"] / max(1, len(analyze))
    failures = runs["untraced"]["failures"] + traced["failures"]
    every = runs["untraced"]["samples"] + samples
    return {
        "ref": host.samples,
        "attempted": len(every),
        "failed": sum(1 for s in every if s[2]),
        "failures": failures,
        "layer": out,
    }


def _host(spans_dir: str, argv: List[str]) -> int:
    """The traced server: layers wrapped here and in every worker."""
    import repro.cli
    import repro.service.pool as pool
    import repro.service.server  # noqa: F401 - the dispatch target's module

    recorder = layers.Recorder()
    layers.install(recorder, layers.SERVER_TARGETS)
    pool.worker_main = functools.partial(layers.traced_worker_main, spans_dir=spans_dir)
    try:
        return repro.cli.serve_main(argv)
    finally:
        recorder.dump(os.path.join(spans_dir, "server.json"))


if __name__ == "__main__":
    sys.exit(_host(sys.argv[1], sys.argv[2:]))
