"""Host-drift control: a fixed pure-Python reference kernel.

On a shared host the same code can run a quarter slower from one set of
runs to the next.  The kernel below is timed in a helper process that
never imports ``repro``, interleaved with the benchmark's samples; every
time metric is then reported in nominal-host seconds::

    normalized = raw * NOMINAL_REF_S / trimmed mean(kernel times of this run)

Run as a script, this module is the helper: it reads one command per
line on stdin (``r`` runs the kernel once and answers its wall time in
seconds, ``q`` exits).
"""

from __future__ import annotations

import ast
import subprocess
import sys
import time

#: the kernel's mean wall time on the nominal host (see README.md)
NOMINAL_REF_S = 0.017
#: a bare ``python -c pass`` start on the nominal host: the reference of
#: the workload whose samples are interpreter starts
NOMINAL_BARE_S = 0.05


def _reference_source() -> str:
    """A fixed Python text: 90 small functions with loops and branches."""
    lines = []
    for k in range(90):
        lines += [
            f"def kernel_{k}(a, b, n):",
            f"    total = {k}",
            "    for i in range(n):",
            f"        if a[i] > {k % 7} and b[i] != i:",
            f"            total += a[i] * b[i] - {k}",
            "        else:",
            "            total -= i // 3",
            f"    return {{'k': total, 'name': 'kernel_{k}', 'rows': [x for x in a if x]}}",
            "",
        ]
    return "\n".join(lines)


_SOURCE = _reference_source()


def kernel() -> int:
    """Parse the fixed text and walk its syntax tree.

    Of the kernels tried (dict/tuple/attribute work, object-tree
    rewriting, bytecode compilation, integer arithmetic, this one), its
    mean time tracked the mean sample time of both in-process workloads
    best across runs on a shared 2-core host (see README.md).
    """
    return sum(1 for _ in ast.walk(ast.parse(_SOURCE)))


def _serve() -> int:
    kernel()  # warm the interpreter's caches before the first timed run
    for line in sys.stdin:
        command = line.strip()
        if command == "q":
            break
        started = time.perf_counter()
        kernel()
        sys.stdout.write(f"{time.perf_counter() - started!r}\n")
        sys.stdout.flush()
    return 0


class HostRef:
    """The helper process, started on entry and stopped on exit."""

    def __init__(self, script: str):
        self._proc = subprocess.Popen(
            [sys.executable, script],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.samples = []

    def sample(self) -> float:
        """Run the kernel once in the helper; record and return its time."""
        self._proc.stdin.write("r\n")
        self._proc.stdin.flush()
        value = float(self._proc.stdout.readline())
        self.samples.append(value)
        return value

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                self._proc.stdin.write("q\n")
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "HostRef":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


if __name__ == "__main__":
    sys.exit(_serve())
