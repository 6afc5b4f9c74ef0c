#!/usr/bin/env python3
"""Count the quadrature nodes of the ground-shift integral on a fixed grid.

    python scripts/node_census.py [--points N] > census.json
    python scripts/node_census.py --compare OLD.json NEW.json

The package is imported from the ``src/`` of the tree this script lives in,
so ``A/scripts/node_census.py`` counts tree A.  The grid is w0/gamma_g in
{1e3, 1e7} x 13 Fermi energies (undoped to heavily doped, as in the
node-count tests of tests/test_interaction.py) x 16 distances from 1 nm to
100 um, 416 points, at the reference emitter; each point runs
``ground_shift`` (dw_g and slope).  ``--points N`` keeps the first N
points.  Nodes are counted by wrapping the module bindings through which
the library calls the quadrature: ``interaction.integrate_refined`` (the
outer integral over frequency) and ``greens.integrate_rows`` (the inner
imaginary-axis rows).  The JSON holds the node totals and, per point,
``mu`` (units of hbar w0), ``q`` (w0/gamma_g), ``d`` (m), the outer and
inner node counts and ``value`` = [dw_g, d dw_g/dd]; a point whose
quadrature fails carries ``error`` instead of ``value``.

``--compare`` prints both files' totals, how many points took more and
fewer nodes at each level, the most nodes at one point at each level, and
the largest relative move of dw_g and of its slope; it exits 1 if the two
files do not cover the same grid or a point failed in one file only.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import casimir_sense as cs  # noqa: E402
from casimir_sense import greens, interaction  # noqa: E402

#: Fermi energies, units of hbar w0
MUS = [0.0, 1e-4, 1e-3, 5e-3, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.6, 0.8, 1.0]
#: w0/gamma_g
QS = [1e3, 1e7]
DISTANCES = np.geomspace(1e-9, 1e-4, 16)
LEVELS = ("outer", "inner")


def grid():
    """(mu, q, d) of every point, w0/gamma_g slowest and d fastest."""
    return [(mu, q, float(d)) for q in QS for mu in MUS for d in DISTANCES]


def _counting(nodes, level, integrate):
    """integrate with its integrand wrapped to add its nodes to nodes[level]."""
    def wrapped(f, edges, *columns, **kwargs):
        def counted(x, *cols):
            nodes[level] += np.size(x)
            return f(x, *cols)
        return integrate(counted, edges, *columns, **kwargs)
    return wrapped


def census(points):
    """The JSON record of ``points`` in the tree this script lives in."""
    emitter = cs.reference_scenario().emitter
    nodes = dict.fromkeys(LEVELS, 0)
    bindings = [(interaction, "integrate_refined", "outer"),
                (greens, "integrate_rows", "inner")]
    saved = [getattr(module, name) for module, name, _ in bindings]
    for (module, name, level), fn in zip(bindings, saved):
        setattr(module, name, _counting(nodes, level, fn))
    rows = []
    try:
        for mu, q, d in points:
            g = cs.GrapheneParams.from_fractions(mu, emitter.omega0, q)
            before = dict(nodes)
            row = {"mu": mu, "q": q, "d": d}
            try:
                value, _ = cs.ground_shift(d, emitter, g)
                row["value"] = [float(v) for v in value]
            except cs.QuadratureError as exc:
                row["error"] = str(exc)
            row.update({level: nodes[level] - before[level]
                        for level in LEVELS})
            rows.append(row)
    finally:
        for (module, name, _), fn in zip(bindings, saved):
            setattr(module, name, fn)
    return {"points": len(rows),
            **{f"{level}_nodes": nodes[level] for level in LEVELS},
            "rows": rows}


def _relative(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def compare(old: dict, new: dict) -> int:
    """Print the comparison of two census records; 1 if they differ in
    grid or in which points failed."""
    def key(row):
        return row["mu"], row["q"], row["d"]

    if [key(r) for r in old["rows"]] != [key(r) for r in new["rows"]]:
        print("the two files cover different grids")
        return 1
    status = 0
    for level in LEVELS:
        a, b = old[f"{level}_nodes"], new[f"{level}_nodes"]
        more = sum(n[level] > o[level] for o, n in zip(old["rows"],
                                                       new["rows"]))
        fewer = sum(n[level] < o[level] for o, n in zip(old["rows"],
                                                        new["rows"]))
        change = f" ({b / a - 1.0:+.1%})" if a else ""
        peak = [max((r[level] for r in f["rows"]), default=0)
                for f in (old, new)]
        print(f"{level} nodes: {a:,} -> {b:,}{change}; "
              f"{more} points more, {fewer} fewer; "
              f"most at one point {peak[0]:,} -> {peak[1]:,}")
    worst = [(0.0, None), (0.0, None)]
    for o, n in zip(old["rows"], new["rows"]):
        if ("value" in o) != ("value" in n):
            print(f"{key(o)}: fails in one file only: "
                  f"{o.get('error') or n.get('error')}")
            status = 1
            continue
        for i, (a, b) in enumerate(zip(o.get("value", ()),
                                       n.get("value", ()))):
            if _relative(a, b) > worst[i][0]:
                worst[i] = (_relative(a, b), key(o))
    for label, (rel, where) in zip(("dw_g", "d dw_g/dd"), worst):
        print(f"{label}: largest relative move {rel:.3e}"
              + (f" at (mu, q, d) = {where}" if where else ""))
    failed = sum("error" in r for r in new["rows"])
    print(f"points: {new['points']}, failed in the new file: {failed}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--points", type=int, default=None,
                        help="count only the first N grid points")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("OLD", "NEW"),
                        help="compare two census files instead")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(p.read_text()) for p in args.compare)
        return compare(old, new)
    json.dump(census(grid()[:args.points]), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
