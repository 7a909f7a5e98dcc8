"""End-to-end benchmark of repro, with a per-layer traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analyze-loops --seed 1 --seconds 18 --trace 0

Workloads (see README.md for why each exists):

* ``pylint-corpus`` -- ``pylint_paths`` + ``render_corpus_json`` over a
  generated ~965-function Python package, in one process;
* ``analyze-loops`` -- ``analyze(ranges, invariants)`` + ``format_report``
  over a generated set of DSL loop programs, in one process;
* ``cli-cold`` -- one fresh ``python -m repro`` process per sample;
* ``serve-mixed`` -- a ``repro serve --workers 2`` daemon driven by a
  closed-loop client over two connections.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  The lines before
it show each time metric's raw value and the host reference it was
normalized by.  Exits 2 without a result when the checkout has no
``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

import layers
from harness import Bench
from host import NOMINAL_BARE_S, NOMINAL_REF_S

WORKLOADS = ("pylint-corpus", "analyze-loops", "cli-cold", "serve-mixed")

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("x_bare_p50", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(math.floor(pos))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def trimmed_mean(values: List[float], cut: float = 0.1) -> float:
    """The mean without the lowest and highest ``cut`` share of values."""
    ordered = sorted(values)
    drop = int(len(ordered) * cut)
    return statistics.fmean(ordered[drop:len(ordered) - drop])


def tail_level(count: int) -> float:
    """The highest quantile with at least ten samples beyond it, capped
    at p99 (and floored at the median for tiny runs)."""
    return max(0.5, min(0.99, (count - 10) / count)) if count else 0.5


# ----------------------------------------------------------------------
# metrics and output
# ----------------------------------------------------------------------
def end_to_end(result: dict, nominal: float,
               scale: float) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The end-to-end metrics and, for each, how it was derived."""
    latencies = result["latencies"]
    p50_raw = result.get("p50_raw", quantile(latencies, 0.5))
    level = tail_level(len(latencies))
    tail_raw = quantile(latencies, level)
    setup_raw = statistics.median(result["setups"])
    setup_scale = nominal / trimmed_mean(result["setup_ref"])
    bare = statistics.median(result["bare"])
    throughput_raw = result["units"] / result["busy_s"]
    if nominal == NOMINAL_BARE_S:
        # the bare starts are this run's reference: the raw ratio is host-free
        x_bare, x_note = p50_raw / bare, f"bare interpreter median {bare:.6f} s"
    else:
        # a sample and an interpreter start slow down differently when the
        # host does, so the normalized median is put in nominal starts
        x_bare = p50_raw * scale / NOMINAL_BARE_S
        x_note = f"latency_p50_s / nominal bare start {NOMINAL_BARE_S} s; raw bare median {bare:.6f} s"
    values = {
        "setup_s": setup_raw * setup_scale,
        "throughput_per_s": throughput_raw / scale,
        "latency_p50_s": p50_raw * scale,
        "latency_tail_s": tail_raw * scale,
        "x_bare_p50": x_bare,
        "peak_rss_mb": result["rss_mb"],
        "ok_frac": 1.0 - result["failed"] / max(1, result["attempted"]),
    }
    notes = {
        "setup_s": (f"raw {setup_raw:.6f} s, median of set-ups "
                    + ", ".join(f"{value:.3f}" for value in result["setups"])
                    + f"; x {setup_scale:.4f}, the scale of the "
                    f"{len(result['setup_ref'])} reference runs around them"),
        "throughput_per_s": f"raw {throughput_raw:.4f}/s over {result['units']} units",
        "latency_p50_s": f"raw {p50_raw:.6f} s over {len(latencies)} samples",
        "latency_tail_s": (f"raw {tail_raw:.6f} s = p{100 * level:.1f} of {len(latencies)} "
                           f"samples ({len(latencies) * (1 - level):.1f} beyond)"),
        "x_bare_p50": f"{x_note} over {len(result['bare'])} starts",
        "peak_rss_mb": "peak resident set",
        "ok_frac": (f"failed_frac {result['failed'] / max(1, result['attempted']):.6f} = "
                    f"{result['failed']} of {result['attempted']} operations"),
    }
    return values, notes


def per_layer(result: dict, scale: float, ref_mean: float) -> Dict[str, float]:
    raw = dict.fromkeys((name for name, _, _ in layers.PER_LAYER), 0.0)
    raw.update(result["layer"])
    out = {}
    for name, unit, _ in layers.PER_LAYER:
        value = raw[name]
        out[name] = value * scale if unit == "s" else value
    out["host.ref_kernel_s"] = ref_mean
    out["host.scale"] = scale
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__main__.py")):
        print("error: run from the root of a repro checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        if args.workload in ("pylint-corpus", "analyze-loops"):
            import inproc as workload
        elif args.workload == "cli-cold":
            import cold as workload
        else:
            import serve as workload
        result = workload.run(bench)
    finally:
        bench.cleanup()

    nominal = result.get("nominal_ref_s", NOMINAL_REF_S)
    ref_mean = trimmed_mean(result["ref"])
    scale = nominal / ref_mean
    print(f"workload {args.workload} seed {args.seed}: host.ref_kernel_s {ref_mean:.6f} "
          f"(nominal {nominal}), host.scale {scale:.4f} over {len(result['ref'])} "
          f"reference runs; every _s metric below is raw x host.scale")
    for failure in result["failures"][:20]:
        print(f"FAILED: {failure}")
    metrics = {}
    if args.trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        for name, value in per_layer(result, scale, ref_mean).items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"  {name:30} {value:.6g} {units[name]}")
    else:
        values, notes = end_to_end(result, nominal, scale)
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:18} {values[name]:.6g} {unit}  ({notes[name]})")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
