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

#: a stand-in for perfbench/run.py: the n-th run in the log reads
#: ops_per_s = BASE + n
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
                  "metrics": {{"ops_per_s": {{"value": {base} + n,
                                              "unit": "1/s"}}}}}}))
"""


def _script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _tree(root, name, base, correct=True):
    bench = root / name / "perfbench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(FAKE_RUN.format(base=base, correct=correct))
    spec = {"run_seconds": 0.5,
            "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}
    (root / name / "BENCHMARK.json").write_text(json.dumps(spec))
    return root / name


def test_pairs_alternate_and_summarise(tmp_path):
    old, new = _tree(tmp_path, "old", 100.0), _tree(tmp_path, "new", 110.0)
    out = tmp_path / "BENCH.json"
    assert _script().main([str(old), str(new), "--workload", "squeeze",
                           "--pairs", "2", "--out", str(out)]) == 0
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


def test_a_wrong_run_leaves_no_summary(tmp_path):
    old = _tree(tmp_path, "old", 100.0)
    new = _tree(tmp_path, "new", 110.0, correct=False)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="correct: false"):
        _script().main([str(old), str(new), "--workload", "squeeze",
                        "--pairs", "1", "--out", str(out)])
    assert not out.exists()
