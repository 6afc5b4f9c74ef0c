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
