#!/usr/bin/env python3
"""Compare the CSV outputs of two source trees of casimir-sense.

    python scripts/compare_outputs.py OLD_TREE NEW_TREE

Runs the four command-line examples of README.md, an undetected
``squeeze --eta-det 0`` (nu = 0 makes kappa_det = 0: the only run that
reaches the closed form of the unconditioned covariance), a
``squeeze --damping symmetric`` (the only CLI run whose damping column reads
``symmetric``), an ``interaction --mu 0.6`` and a one-point
``sensitivity --epsilon 0.2 --eta-det 0.5`` (the override flags of the two
sweeps) and ``scripts/survey_data.py --quick`` once per tree, each tree's package
imported from its own ``src/``, in a temporary directory.  For each output
file it prints whether the file is byte-identical, how many data cells moved
and the largest relative difference, then, per moved column, how many cells
moved, the largest relative difference and the first few cells.  Lines
starting with ``#`` are compared as text, by a line diff, so one removed
header line reads as one removed line.  Exits 1 if a run exits non-zero in
either tree, a file is missing from one tree or changes shape, or a data
cell moves by more than TOLERANCE (1e-12) of the largest magnitude in its
column of the old tree: the bound within which two trees count as giving
the same numbers.  A column whose moved cells are not all numbers fails.
"""

import argparse
import csv
import difflib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: (output file, CLI arguments); None writes standard output to the file
CLI_EXAMPLES = [
    ("conductivity.csv", ["conductivity", "--mu-min", "0", "--mu-max", "1.2",
                          "--mu-count", "121", "--out", "conductivity.csv"]),
    ("interaction.csv", ["interaction", "--d-min", "5e-9", "--d-max", "50e-9",
                         "--d-count", "16", "--log-d"]),
    ("sensitivity.csv", ["sensitivity", "--d-min", "10e-9", "--d-max",
                         "40e-9", "--d-count", "8", "--mu-min", "0.2",
                         "--mu-max", "1.0", "--mu-count", "9", "--out",
                         "sensitivity.csv"]),
    ("squeezing.csv", ["squeeze", "--damping", "momentum", "--t-end", "3e-6",
                       "--out", "squeezing.csv"]),
    ("squeezing_undetected.csv", ["squeeze", "--eta-det", "0", "--t-end",
                                  "3e-6", "--out",
                                  "squeezing_undetected.csv"]),
    ("squeezing_symmetric.csv", ["squeeze", "--damping", "symmetric",
                                 "--t-end", "1e-6", "--out",
                                 "squeezing_symmetric.csv"]),
    ("interaction_mu.csv", ["interaction", "--d-min", "10e-9", "--d-max",
                            "20e-9", "--d-count", "3", "--mu", "0.6"]),
    ("sensitivity_point.csv", ["sensitivity", "--d-min", "18e-9", "--d-max",
                               "18e-9", "--d-count", "1", "--mu-min", "0.8",
                               "--mu-max", "0.8", "--mu-count", "1",
                               "--epsilon", "0.2", "--eta-det", "0.5",
                               "--out", "sensitivity_point.csv"]),
]
#: moved cells printed per column
SHOWN = 5
#: largest move of a data cell, over its column's largest magnitude
TOLERANCE = 1e-12


def run_tree(tree: Path, workdir: Path) -> tuple[dict, bool]:
    """Write every output of ``tree`` into ``workdir``; returns the wall
    times and whether every run exited 0."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    times, ok = {}, True
    for name, args in CLI_EXAMPLES:
        start = time.perf_counter()
        run = subprocess.run([sys.executable, "-m", "casimir_sense.cli", *args],
                             cwd=workdir, env=env, capture_output=True,
                             text=True)
        times[name] = time.perf_counter() - start
        if "--out" not in args:
            (workdir / name).write_text(run.stdout)
        if run.returncode:
            print(f"# {tree}: {name} exited {run.returncode}: "
                  f"{run.stderr.strip()[-200:]}")
            ok = False
    start = time.perf_counter()
    run = subprocess.run([sys.executable, str(tree / "scripts" /
                                              "survey_data.py"),
                          "--quick", "--outdir", "survey"],
                         cwd=workdir, env=env, capture_output=True, text=True)
    times["survey_data.py --quick"] = time.perf_counter() - start
    if run.returncode:
        print(f"# {tree}: survey_data.py exited {run.returncode}: "
              f"{run.stderr.strip()[-200:]}")
        ok = False
    return times, ok


def _table(path: Path):
    """(comment lines, header, data rows) of a CSV written by the package."""
    comments, rows = [], []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line)
            else:
                rows.extend(csv.reader([line]))
    return comments, (rows[0] if rows else []), rows[1:]


def _relative(old: str, new: str) -> float:
    """Relative difference of two cells; inf if they differ but are not
    both numbers."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return float("inf")
    if a == b or (np.isnan(a) and np.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _scaled(cells, column) -> float:
    """Largest difference of the moved cells over the column's largest
    magnitude, empty cells aside: the size of a move next to a value that
    crosses zero.  inf if a cell is not a number."""
    try:
        scale = max(abs(float(v)) for v in column if v)
        return max(abs(float(a) - float(b)) for _, a, b, _ in cells) / scale
    except (ValueError, ZeroDivisionError):
        return float("inf")


def compare_file(old: Path, new: Path, label: str) -> bool:
    """Print the comparison of one output file; False if it changes shape
    or a data cell moves by more than TOLERANCE of its column's scale."""
    if old.read_bytes() == new.read_bytes():
        print(f"{label}: byte-identical")
        return True
    old_comments, header, old_rows = _table(old)
    new_comments, new_header, new_rows = _table(new)
    if header != new_header or [len(r) for r in old_rows] \
            != [len(r) for r in new_rows]:
        print(f"{label}: header or shape changed "
              f"({len(old_rows)} -> {len(new_rows)} rows)")
        return False
    moved = {}
    for i, (a_row, b_row) in enumerate(zip(old_rows, new_rows)):
        for j, (a, b) in enumerate(zip(a_row, b_row)):
            if a != b:
                moved.setdefault(j, []).append((i, a, b, _relative(a, b)))
    cells = sum(len(v) for v in moved.values())
    worst = max((c[3] for v in moved.values() for c in v), default=0.0)
    comments = [line.rstrip() for line in difflib.ndiff(old_comments,
                                                         new_comments)
                if line.startswith(("- ", "+ "))]
    removed = sum(line.startswith("-") for line in comments)
    print(f"{label}: {cells} of {sum(map(len, old_rows))} data cells moved, "
          f"max relative difference {worst:.3e}; '#' lines: {removed} "
          f"removed, {len(comments) - removed} added")
    same = True
    for j, cells_j in sorted(moved.items()):
        name = header[j] if j < len(header) else f"column {j}"
        worst_j = max(cells_j, key=lambda c: c[3])
        scaled = _scaled(cells_j, [r[j] for r in old_rows])
        same &= scaled <= TOLERANCE
        print(f"    {name}: {len(cells_j)} cells, max relative "
              f"{worst_j[3]:.3e} (row {worst_j[0]}: {worst_j[1]} -> "
              f"{worst_j[2]}), max difference over the column's largest "
              f"magnitude {scaled:.3e}"
              + ("" if scaled <= TOLERANCE else f" > {TOLERANCE:.0e}"))
        for i, a, b, rel in cells_j[:SHOWN]:
            print(f"        row {i}: {a} -> {b} ({rel:.2e})")
        if len(cells_j) > SHOWN:
            print(f"        ... {len(cells_j) - SHOWN} more")
    for line in comments:
        print(f"    {line}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    args = parser.parse_args(argv)
    ok = True
    with tempfile.TemporaryDirectory() as scratch:
        dirs = []
        for tag, tree in (("old", args.old_tree), ("new", args.new_tree)):
            workdir = Path(scratch) / tag
            workdir.mkdir()
            times, ran = run_tree(tree.resolve(), workdir)
            ok &= ran
            print(f"# {tag} tree {tree}: " + ", ".join(
                f"{name} {t:.1f} s" for name, t in times.items()))
            dirs.append(workdir)
        names = sorted({p.relative_to(d).as_posix() for d in dirs
                        for p in d.rglob("*") if p.is_file()})
        for name in names:
            old, new = (d / name for d in dirs)
            if not (old.exists() and new.exists()):
                print(f"{name}: only in the {'new' if new.exists() else 'old'}"
                      " tree")
                ok = False
                continue
            ok &= compare_file(old, new, name)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
