#!/usr/bin/env python
"""Print one sha256 per determinism fingerprint, for A/B tree comparison.

A change that claims to be speed-only must leave every simulated outcome
byte-identical.  This script reduces the observable surface of a set of
fixed runs to one digest each — the sha256 of
``repr(fingerprint_soc(soc))`` — so two trees can be compared by running
it in both and diffing the output::

    python scripts/fingerprint_digests.py > after.txt
    (cd ../parent && python /path/to/fingerprint_digests.py) > before.txt
    diff before.txt after.txt

The script resolves ``src/``, ``layerbench/`` and ``tests/`` relative to
the working directory, so a copy run from another checkout's root
fingerprints that checkout.

Runs covered:

- every workload in ``layerbench.workloads.WORKLOADS`` at the benchmark's
  default seed: the activity kernel over ``min(window, 20_000)`` cycles
  and the strict kernel over the workload's ``prefix``;
- every SoC build of the strict-vs-activity matrix in
  ``tests/test_kernel_determinism.py``, under both kernels, for the
  cycle count that matrix runs it for.  A build the tree does not define
  prints ``missing`` instead of a digest, so a newer matrix can still be
  compared against an older tree on the builds they share.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

#: Builds of the kernel determinism matrix and the cycles it runs each for.
DETERMINISM_BUILDS = (
    ("build_mixed_soc", 4000),
    ("build_lock_soc", 3000),
    ("build_gals_soc", 5000),
    ("build_vc_gals_soc", 5000),
    ("build_adaptive_gals_soc", 5000),
    ("build_faulted_adaptive_gals_soc", 5000),
    ("build_saf_soc", 4000),
    ("build_vct_vc_soc", 5000),
)

#: Cap on a workload's activity-kernel run, so sparse_mesh's long window
#: does not dominate the script's run time.
WORKLOAD_CYCLE_CAP = 20_000


def digest(soc, cycles: int) -> str:
    from repro.sim.fingerprint import fingerprint_soc

    soc.run(cycles)
    return hashlib.sha256(repr(fingerprint_soc(soc)).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the benchmark's)")
    args = parser.parse_args(argv)
    seed = args.seed
    if seed is None:
        metrics = json.loads((ROOT / "layerbench" / "metrics.json").read_text())
        seed = metrics["default_seed"]

    from layerbench.workloads import WORKLOADS

    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        cycles = min(workload.window, WORKLOAD_CYCLE_CAP)
        print(f"workload {name} activity {cycles} "
              f"{digest(workload.build(seed, strict=False), cycles)}",
              flush=True)
        print(f"workload {name} strict {workload.prefix} "
              f"{digest(workload.build(seed, strict=True), workload.prefix)}",
              flush=True)

    import test_kernel_determinism as matrix

    for build_name, cycles in DETERMINISM_BUILDS:
        build = getattr(matrix, build_name, None)
        for kernel, strict in (("activity", False), ("strict", True)):
            value = "missing" if build is None else digest(
                build(strict=strict), cycles
            )
            print(f"determinism {build_name} {kernel} {cycles} {value}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
