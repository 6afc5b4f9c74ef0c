"""The Python examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    # one namespace: a later block may use the names of an earlier one
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["v_min"] < 1.0
    assert namespace["traj"].t[-1] == 20.0
