#!/usr/bin/env python3
"""Layer-attributed benchmark of the layered-NoC simulator.

Run from the repository root::

    python3 layerbench/run.py --workload mixed_saturated --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the per-layer tracing (alternating with untraced runs of the same inputs)
and reports the per-layer metrics.  ``--workload all`` does both for every
workload.  Each metric is printed with its unit, layer and whether it is
host or simulated time; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from layerbench import measure  # noqa: E402
from layerbench.workloads import WORKLOADS  # noqa: E402

#: Environment switch that would select a non-default router executor;
#: the benchmark measures the default users get.
ROUTER_CORE_ENV = "REPRO_ROUTER_CORE"


def load_spec():
    """Units from BENCHMARK.json; layer, kind and default seed from
    metrics.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = json.loads((Path(__file__).parent / "metrics.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    return bench, units, info


def report(title: str, inv, metrics, units, info) -> None:
    print(f"== {title}: seed {inv.seed}, {inv.attempted} transactions "
          f"attempted, {inv.failed} failed")
    for problem in inv.problems:
        print(f"   FAILED: {problem}")
    if inv.speeds:
        print(f"   host speed: {statistics.median(inv.speeds):.3f} of the "
              f"reference (median of {len(inv.speeds)} calibrations); "
              f"host times of the end-to-end metrics are scaled to it")
    if inv.reference is not None:
        q = inv.reference["latency"]["tail_q"]
        if q < measure.TAIL:
            print(f"   note: tail latency is p{100 * q:.2f} "
                  f"(fewer than 1,000 completions)")
    print(f"   {'metric':34} {'value':>16} {'unit':12} {'layer':10} time")
    for name, value in metrics.items():
        meta = info[name]
        print(f"   {name:34} {value:16.6g} {units[name]:12} "
              f"{meta['layer']:10} {meta['time']}")


def run_one(name, seed, seconds, trace, units, info):
    workload = WORKLOADS[name]
    if trace:
        inv, metrics = measure.per_layer(workload, seed, seconds)
    else:
        inv, metrics = measure.end_to_end(workload, seed, seconds)
    report(f"{name} ({'traced' if trace else 'untraced'})",
           inv, metrics, units, info)
    return inv, metrics


def main(argv=None) -> int:
    bench, units, info = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=info["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--memory-probe", type=int, metavar="CYCLES",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop(ROUTER_CORE_ENV, None)

    if args.memory_probe is not None:
        workload = replace(WORKLOADS[args.workload], window=args.memory_probe)
        print(json.dumps(measure.memory_probe(workload, args.seed)))
        return 0

    if args.workload == "all":
        runs = [(f"{name}.", trace) for name in sorted(WORKLOADS)
                for trace in (0, 1)]
    else:
        runs = [("", args.trace)]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for prefix, trace in runs:
        name = prefix[:-1] or args.workload
        inv, values = run_one(name, args.seed, args.seconds, trace,
                              units, info["metrics"])
        correct = correct and inv.correct and bool(values)
        attempted += inv.attempted
        failed += inv.failed
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
