#!/usr/bin/env python3
"""Record reference.json: the checked outputs of the default seed's first ops.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are the accepted behaviour; the
benchmark compares every op of the default seed that has a stored entry
against it, within the tolerances in workloads.py.  An op that raised is
stored with ``values`` = null and is not compared.
"""

from __future__ import annotations

import json
import sys

import run

#: blocks stored per workload: more than a 35 s run completed when recorded
BLOCKS = {"coupling_grid": 20, "scattering_map": 150, "squeeze": 16}


def record(name: str, workloads) -> list[dict]:
    wl = workloads.WORKLOADS[name](run.DEFAULT_SEED)
    entries = []
    for j in range(BLOCKS[name]):
        for op in wl.block(j):
            try:
                values = op.check(op.run())
                values = {key: values[key] for key in wl.rtol}
            except workloads.TYPED_ERRORS:
                values = None
            entries.append({"inputs": op.inputs, "values": values})
    return entries


def main() -> int:
    run.import_library()
    import workloads
    data = {"seed": run.DEFAULT_SEED, "environment": run.environment(),
            "workloads": {name: record(name, workloads)
                          for name in workloads.WORKLOADS}}
    with open(run.REFERENCE, "w") as fh:
        json.dump(data, fh, indent=0)
        fh.write("\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
