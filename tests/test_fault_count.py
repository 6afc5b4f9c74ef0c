"""Smoke test of scripts/fault_count.py on one block of each workload."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "fault_count.py"


def test_fault_count_measures_one_block(monkeypatch):
    spec = importlib.util.spec_from_file_location("fault_count", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "BLOCKS", 1)
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for name, block in (("coupling_grid", 9), ("scattering_map", 6),
                        ("squeeze", 6)):
        n, ms, faults, peak = script.measure(name,
                                             reference["workloads"][name])
        assert n == block
        assert ms > 0.0 and faults >= 0.0 and peak > 0.0
