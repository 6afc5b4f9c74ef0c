#!/usr/bin/env python3
"""Time, minor page faults and traced peak memory per benchmark op.

    python scripts/fault_count.py

The package is imported from the ``src/`` of the tree this script lives in,
so ``A/scripts/fault_count.py`` measures tree A.  The script first loads
``perfbench/reference.json`` (read only), then runs the first BLOCKS
blocks of the three benchmark workloads at seed 1 the way
``perfbench/run.py``'s timed loop does: one warm-up op, then every op
through ``workloads.execute``, checked against the reference, its outcome
kept.  ``coupling_grid`` calls ``evaluate_coupling``, ``scattering_map``
``scattering_rate_map`` and ``squeeze`` ``simulate``; all three run the one
Casimir pass of ``interaction_and_gradient``, ``squeeze`` then the
conditional covariance.  Faults depend on the heap an op runs on, and
so on what the process holds and on the order of the ops: when glibc
returns the top of the heap after a large op, the next op faults those
pages back in.  One line per workload: ms per op, minor faults per op
(``ru_minflt`` of getrusage over the timed ops) and the largest
tracemalloc peak of one op (KiB), from one more pass under tracemalloc.
"""

import json
import resource
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

#: the seed whose outputs perfbench/reference.json holds
SEED = 1
#: blocks of each workload: 9 ops of coupling_grid, 6 of scattering_map,
#: 6 of squeeze
BLOCKS = 60


def measure(name, references):
    """(ops, ms per op, minor faults per op, largest one-op peak in KiB)."""
    wl = workloads.WORKLOADS[name](SEED)
    ops = [op for j in range(BLOCKS) for op in wl.block(j)]

    def run(some):
        return [workloads.execute(op, references, wl.rtol) for op in some]

    outcomes = run(ops[:1])
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = perf_counter()
    outcomes += run(ops)
    ms = 1e3 * (perf_counter() - t0) / len(ops)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    if any(o.wrong for o in outcomes):
        raise SystemExit(f"{name}: an op returned a wrong output")
    peak = 0
    tracemalloc.start()
    for op in ops:
        tracemalloc.reset_peak()
        run([op])
        peak = max(peak, tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
    return len(ops), ms, faults / len(ops), peak / 1024.0


def main() -> int:
    with open(ROOT / "perfbench" / "reference.json") as fh:
        reference = json.load(fh)
    for name, call in (("coupling_grid", "evaluate_coupling"),
                       ("scattering_map", "scattering_rate_map"),
                       ("squeeze", "simulate")):
        n, ms, faults, peak = measure(name, reference["workloads"][name])
        print(f"{name:14s} ({call:19s}) {n:4d} ops  {ms:7.3f} ms/op  "
              f"{faults:7.2f} minor faults/op  peak {peak:7.1f} KiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
