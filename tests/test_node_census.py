"""Smoke test of scripts/node_census.py on the first two grid points."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "node_census.py"


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, check=False)


def test_census_counts_and_compares_two_points(tmp_path):
    run = _run("--points", "2")
    assert run.returncode == 0, run.stderr
    census = json.loads(run.stdout)
    rows = census["rows"]
    assert census["points"] == len(rows) == 2
    for level in ("outer", "inner"):
        assert census[f"{level}_nodes"] == sum(r[level] for r in rows)
        assert all(r[level] > 0 for r in rows)
    for row in rows:
        value, slope = row["value"]
        assert value < 0.0 < slope          # attractive, weaker further out
    path = tmp_path / "census.json"
    path.write_text(run.stdout)
    report = _run("--compare", str(path), str(path))
    assert report.returncode == 0, report.stdout
    assert "0 points more, 0 fewer" in report.stdout
    assert "dw_g: largest relative move 0.000e+00" in report.stdout


def test_compare_reports_the_most_nodes_at_one_point(tmp_path):
    def record(outer):
        rows = [{"mu": 0.0, "q": 1e3, "d": d, "outer": n, "inner": 10 * n,
                 "value": [-1.0, 1.0]} for d, n in zip((1e-9, 2e-9), outer)]
        return {"points": 2, "outer_nodes": sum(outer),
                "inner_nodes": 10 * sum(outer), "rows": rows}

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(record([288, 1_800])))
    new.write_text(json.dumps(record([432, 888])))
    report = _run("--compare", str(old), str(new))
    assert report.returncode == 0, report.stdout
    assert ("outer nodes: 2,088 -> 1,320 (-36.8%); 1 points more, 1 fewer; "
            "most at one point 1,800 -> 888") in report.stdout
    assert "most at one point 18,000 -> 8,880" in report.stdout
