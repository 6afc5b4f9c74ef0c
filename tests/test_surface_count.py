"""Smoke test of scripts/surface_count.py against the imported package."""

import dataclasses
import inspect
import json
import subprocess
import sys
from pathlib import Path

import casimir_sense as cs

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "surface_count.py"


def test_surface_count_matches_the_package():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, check=False)
    assert run.returncode == 0, run.stderr
    counts = json.loads(run.stdout)
    assert counts["src_lines"] == sum(len(p.read_text().splitlines())
                                      for p in (ROOT / "src").rglob("*.py"))
    assert counts["all_names"] == len(cs.__all__)
    # every dataclass the package defines, counted by the dataclasses module
    modules = [m for _, m in inspect.getmembers(cs, inspect.ismodule)]
    classes = {c for m in modules for _, c in inspect.getmembers(m)
               if dataclasses.is_dataclass(c) and isinstance(c, type)
               and c.__module__ == m.__name__}
    assert counts["dataclass_fields"] == sum(len(dataclasses.fields(c))
                                             for c in classes)
    assert counts["defaulted_params"] > 0
