"""Smoke test of scripts/bench_pairs.py on two fake trees.

Each fake tree's perfbench/run.py prints the harness's two kinds of output
line at once and logs which tree ran with which flags, so the test sees the
alternating order and the summary without a real benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"

#: a stand-in for perfbench/run.py: the n-th run in the log attempts 10 + n
#: ops, reads ops_per_s = BASE + n and holds RSS MiB plus 1 KiB per op
FAKE_RUN = """\
import json, sys
from pathlib import Path
tree = Path(__file__).resolve().parent.parent
log = tree.parent / "runs.log"
with open(log, "a") as fh:
    fh.write(tree.name + " " + " ".join(sys.argv[1:]) + "\\n")
n = len(log.read_text().splitlines())
print("# env " + json.dumps({{"commit": tree.name}}))
print(json.dumps({{"correct": {correct}, "attempted": 10 + n, "failed": 0,
                  "metrics": {{
                      "ops_per_s": {{"value": {base} + n, "unit": "1/s"}},
                      "peak_rss_mb": {{"value": {rss} + (10 + n) / 1024,
                                       "unit": "MB"}}}}}}))
"""


def _script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _tree(root, name, base, rss=40.0, correct=True):
    bench = root / name / "perfbench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(FAKE_RUN.format(base=base, rss=rss,
                                                  correct=correct))
    spec = {"run_seconds": 0.5,
            "end_to_end": [{"name": "ops_per_s", "better": "higher"},
                           {"name": "peak_rss_mb", "better": "lower"}]}
    (root / name / "BENCHMARK.json").write_text(json.dumps(spec))
    return root / name


def test_pairs_alternate_and_summarise(tmp_path, capsys):
    old = _tree(tmp_path, "old", 100.0)
    new = _tree(tmp_path, "new", 110.0, rss=40.5)
    out = tmp_path / "BENCH.json"
    assert _script().main([str(old), str(new), "--workload", "squeeze",
                           "--pairs", "2", "--out", str(out)]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("# squeeze") and "median" in line]
    assert len(lines) == 2
    assert lines[0].startswith("# squeeze ops_per_s: median old 102.5, "
                               "new 112.5") and lines[0].endswith("2/2")
    runs = (tmp_path / "runs.log").read_text().splitlines()
    flags = "--workload squeeze --seed 1 --seconds 0.5 --trace 0"
    assert runs == [f"{side} {flags}" for side in ("old", "new", "new", "old")]
    report = json.loads(out.read_text())
    assert {"nproc", "cpu", "python", "numpy"} <= set(report["machine"])
    wl = report["workloads"]["squeeze"]
    assert wl["first"] == ["old", "new"] and wl["correct"] is True
    assert wl["attempted"] == {"old": [11, 14], "new": [12, 13]}
    assert wl["env"] == {"old": {"commit": "old"}, "new": {"commit": "new"}}
    rate = wl["metrics"]["ops_per_s"]
    assert rate["old"] == {"median": 102.5, "q1": 101.75, "q3": 103.25,
                           "runs": [101.0, 104.0]}
    assert rate["new"]["runs"] == [112.0, 113.0]
    assert rate["new_over_old"] == pytest.approx(112.5 / 102.5)
    assert rate["better"] == "higher" and rate["new_wins"] == "2/2"
    # RSS is 40 (old) or 40.5 MiB (new) plus 1 KiB per attempted op
    fit = wl["rss_fit"]
    assert fit["slope_kib_per_op"] == pytest.approx(1.0, rel=1e-9)
    assert fit["intercept_mb"] == pytest.approx(40.25, rel=1e-12)
    assert fit["median_intercept_mb"] == {
        "old": pytest.approx(40.0, rel=1e-12),
        "new": pytest.approx(40.5, rel=1e-12)}


def test_a_wrong_run_leaves_no_summary(tmp_path):
    old = _tree(tmp_path, "old", 100.0)
    new = _tree(tmp_path, "new", 110.0, correct=False)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="correct: false"):
        _script().main([str(old), str(new), "--workload", "squeeze",
                        "--pairs", "1", "--out", str(out)])
    assert not out.exists()


def test_rss_fit_separates_retention_from_footprint():
    # NEW completes more ops and holds 1 MiB more of its own: the common
    # slope stays at each side's 2 KiB per op, where one line through all
    # six runs would read 11.5
    ops = {"old": [100, 110, 120], "new": [200, 230, 210]}
    base = {"old": 40.0, "new": 41.0}
    rss = {s: [base[s] + k * 2 / 1024 for k in ops[s]] for s in ops}
    fit = _script().rss_fit(ops, rss)
    assert fit["slope_kib_per_op"] == pytest.approx(2.0, rel=1e-9)
    assert fit["median_intercept_mb"] == {
        s: pytest.approx(base[s], rel=1e-12) for s in ops}
    flat = {"old": [5, 5], "new": [7, 7]}
    assert _script().rss_fit(flat, {"old": [40.0, 40.1],
                                    "new": [41.0, 41.2]}) is None
