"""Check that the traced run's deterministic counters repeat exactly.

Runs ``run.py --trace 1`` twice per workload with the same seed and
compares the counters in ``layers.DETERMINISTIC``.  A counter that a
workload does not exercise reads 0 on both runs and passes trivially.

    python3 perfbench/check_counters.py [--seed N] [--seconds S] [WORKLOAD ...]

Exits 1 when any counter differs between the two runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import layers
from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_counters(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in layers.DETERMINISTIC}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()
    differ = 0
    for workload in args.workloads:
        first = traced_counters(workload, args.seed, args.seconds)
        second = traced_counters(workload, args.seed, args.seconds)
        for name in layers.DETERMINISTIC:
            same = first[name] == second[name]
            differ += not same
            print(f"{workload:14} {name:28} {first[name]!r:>12} {second[name]!r:>12} "
                  f"{'same' if same else 'DIFFERENT'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
