#!/usr/bin/env python3
"""Alternating benchmark pairs of two source trees, summarised per metric.

    python scripts/bench_pairs.py OLD NEW --workload W [--workload W2 ...]
        [--pairs N] [--seed K] --out BENCH_<n>.json

Each tree runs its own ``perfbench/run.py --workload W --seed K --seconds S
--trace 0`` with this interpreter, from its own directory, one run at a
time; S is the ``run_seconds`` of NEW's ``BENCHMARK.json``, so both sides
run as long as the benchmark does.  The sides alternate which runs first
(ABBA): OLD first in pairs 1, 3, 5, ..., NEW first in pairs 2, 4, ...; the
workloads run one after another.  Each run's last line of standard output
is the harness's JSON result.  The script refuses to summarise, and writes
nothing, if a run exits non-zero, prints no result or reads
``correct: false``.

The JSON written to ``--out`` holds the machine (processors, CPU,
platform), the Python and numpy versions, each tree's directory name and
its commit and source digest as the harness reports them, and per
workload: the order of each pair, each run's attempted and failed ops, and
per end-to-end metric each side's runs, median and quartiles (inclusive
method), the ratio of the medians and in how many pairs NEW read better
(ties count for neither), the direction that is better also from NEW's
``BENCHMARK.json``.  One line per metric (medians, their ratio, wins) goes
to standard error.

A run's ``peak_rss_mb`` (MiB) grows with the ops it completes, since the
harness keeps each op's outcome until the run ends.  So per workload the
JSON also holds ``rss_fit``: one slope of ``peak_rss_mb`` against
``attempted`` in common to all 2N runs, fitted by least squares with each
side's own mean removed (so a change of footprint between the sides does
not tilt it), in KiB per op; the intercept of the line at that slope
through the mean of all runs; and per side the median over its runs of
``peak_rss_mb - slope * attempted``, the program's memory at zero retained
ops.  The fit is null when the runs report no ``peak_rss_mb`` or no side's
runs differ in ``attempted``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("old", "new")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One harness run of ``tree``: its JSON result, plus ``env`` from the
    ``# env`` line when the harness prints one."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree} {workload}: run.py exited "
                         f"{proc.returncode}\n{proc.stderr}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"{tree} {workload}: last line is no JSON result: "
                         f"{lines[-1]!r}")
    for line in lines:
        if line.startswith("# env "):
            result["env"] = json.loads(line[len("# env "):])
    return result


def summary(runs: list[float]) -> dict:
    """Median, quartiles and the runs themselves."""
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def _wins(old: list[float], new: list[float], better: str) -> str:
    """In how many pairs NEW read better, as "k/n"."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (b - a) > 0.0 for a, b in zip(old, new))
    return f"{won}/{len(old)}"


def rss_fit(attempted: dict, rss: dict) -> dict | None:
    """Common slope of RSS (MiB) against ops, intercept and each side's
    median intercept at that slope (module docstring)."""
    ops = {side: np.asarray(attempted[side], dtype=float) for side in SIDES}
    mib = {side: np.asarray(rss[side], dtype=float) for side in SIDES}
    spread = sum(((ops[s] - ops[s].mean()) ** 2).sum() for s in SIDES)
    if spread == 0.0:
        return None
    slope = sum(((ops[s] - ops[s].mean()) * (mib[s] - mib[s].mean())).sum()
                for s in SIDES) / spread
    everything = np.concatenate([mib[s] - slope * ops[s] for s in SIDES])
    return {"slope_kib_per_op": float(slope * 1024.0),
            "intercept_mb": float(everything.mean()),
            "median_intercept_mb": {
                s: float(np.median(mib[s] - slope * ops[s])) for s in SIDES}}


def pairs(trees: dict, workload: str, n: int, seed: int, seconds: float,
          better: dict) -> dict:
    """Run ``n`` alternating pairs of one workload and summarise them."""
    results = {side: [] for side in SIDES}
    first = []
    for i in range(n):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            result = run_once(trees[side], workload, seed, seconds)
            results[side].append(result)
            print(f"# {workload} pair {i + 1}/{n} {side}: "
                  f"{result.get('attempted')} ops, "
                  f"correct {result.get('correct')}", file=sys.stderr)
    wrong = [(side, i + 1) for side in SIDES
             for i, r in enumerate(results[side])
             if r.get("correct") is not True]
    if wrong:
        raise SystemExit(f"{workload}: runs read correct: false or no verdict "
                         f"(side, pair): {wrong}; no summary written")
    metrics = {}
    for name, entry in results["new"][0]["metrics"].items():
        runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                for side in SIDES}
        old, new = summary(runs["old"]), summary(runs["new"])
        m = metrics[name] = {
            "unit": entry["unit"], "better": better[name],
            "old": old, "new": new,
            "new_over_old": (new["median"] / old["median"]
                             if old["median"] else None),
            "new_wins": _wins(runs["old"], runs["new"], better[name]),
        }
        print(f"# {workload} {name}: median old {old['median']:.6g}, new "
              f"{new['median']:.6g}, new/old {m['new_over_old']}, new wins "
              f"{m['new_wins']}", file=sys.stderr)
    attempted = {s: [r["attempted"] for r in results[s]] for s in SIDES}
    rss = metrics.get("peak_rss_mb")
    return {
        "seed": seed, "seconds": seconds, "pairs": n, "first": first,
        "correct": True,
        "attempted": attempted,
        "failed": {s: [r["failed"] for r in results[s]] for s in SIDES},
        "env": {s: results[s][0].get("env") for s in SIDES},
        "metrics": metrics,
        "rss_fit": (rss_fit(attempted, {s: rss[s]["runs"] for s in SIDES})
                    if rss else None),
    }


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    spec = json.loads((trees["new"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {
        "what": (f"perfbench/run.py --trace 0 --seconds {seconds:g} "
                 f"--seed {args.seed}, each tree's own harness, "
                 f"{args.pairs} pairs per workload alternating which side "
                 "runs first (old first in odd pairs); workloads one after "
                 "another"),
        "trees": {side: tree.name for side, tree in trees.items()},
        "machine": machine(),
        "workloads": {w: pairs(trees, w, args.pairs, args.seed, seconds,
                               better) for w in args.workload},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
