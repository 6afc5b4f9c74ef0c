"""scripts/compare_outputs.py runs the command-line examples of README.md."""

import importlib.util
import re
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cli_examples():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLI_EXAMPLES


def _readme_commands():
    """The argument lists of the README's command-line block."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text,
                      re.S).group(1)
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("casimir-sense ")]


def test_every_readme_command_is_compared():
    commands = _readme_commands()
    assert len(commands) == 4
    compared = [args for _, args in _cli_examples()]
    assert [c for c in commands if c not in compared] == []
