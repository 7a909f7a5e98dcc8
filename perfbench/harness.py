"""What every workload's parent side shares: the run's directory and
environment, and child-process helpers."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

from host import HostRef

HERE = os.path.dirname(os.path.abspath(__file__))

#: set-ups per run; setup_s is their median
SETUPS = 4
#: reference runs taken just before each set-up: set-up time is normalized
#: by the host speed around the set-ups, not by the later measurement's
SETUP_REFS = 3


class Bench:
    """One run: its checkout, scratch directory, environment, seed and length."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(root, ".perfbench", f"{workload}-{os.getpid()}")
        os.makedirs(os.path.join(self.work, "tmp"), exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        # multiprocessing and tempfile put their files here, not in /tmp
        self.env["TMPDIR"] = os.path.join(self.work, "tmp")
        # children read and write bytecode, as a user's interpreter does,
        # in a cache of this run's own whatever the caller's environment
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(self.work, "pyc")

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def host_ref(self) -> HostRef:
        return HostRef(os.path.join(HERE, "host.py"))

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


def timed_wait(proc: subprocess.Popen) -> float:
    """Reap ``proc``; returns its peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def bare_python(env: dict) -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - started
