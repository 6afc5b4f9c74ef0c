"""scripts/compare_outputs.py runs the command-line examples of README.md
and compares two trees' CSV files cell by cell."""

import importlib.util
import re
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _module():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    compared = [args for _, args in _module().CLI_EXAMPLES]
    assert [c for c in commands if c not in compared] == []


OLD_CSV = """\
# casimir-sense 0.1.0
# [graphene]
# mu_over_hbar_omega0 = 0.8
# sigma_zero = False
# omega0_over_gamma_g = 1000.0
d_m,delta_g_rad_s,quantum_regime
1.000000000000e-08,-2.000000000000e+09,true
2.000000000000e-08,-5.000000000000e+08,false
"""


def _compare(tmp_path, capsys, new_text):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(OLD_CSV)
    new.write_text(new_text)
    same = _module().compare_file(old, new, "x.csv")
    return same, capsys.readouterr().out


def test_compare_file_reports_identical_bytes(tmp_path, capsys):
    same, out = _compare(tmp_path, capsys, OLD_CSV)
    assert same and out == "x.csv: byte-identical\n"


def test_compare_file_counts_one_removed_header_line_once(tmp_path, capsys):
    # a line diff: compared by position, every later line would differ
    same, out = _compare(tmp_path, capsys,
                         OLD_CSV.replace("# sigma_zero = False\n", ""))
    assert same
    assert out.splitlines() == [
        "x.csv: 0 of 6 data cells moved, max relative difference 0.000e+00; "
        "'#' lines: 1 removed, 0 added",
        "    - # sigma_zero = False"]


def test_compare_file_fails_on_a_moved_cell_and_on_a_new_shape(tmp_path,
                                                               capsys):
    same, out = _compare(tmp_path, capsys,
                         OLD_CSV.replace("-5.000000000000e+08",
                                         "-5.000000001000e+08"))
    assert not same
    assert out.startswith("x.csv: 1 of 6 data cells moved")
    assert "delta_g_rad_s: 1 cells" in out and "> 1e-12" in out
    same, out = _compare(tmp_path, capsys,
                         OLD_CSV + "3.0e-08,-1.0e+08,false\n")
    assert not same and "header or shape changed (2 -> 3 rows)" in out
