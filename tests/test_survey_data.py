"""scripts/survey_data.py writes its files in the command-line tool's
format, through the tool's writer."""

import importlib.util
from pathlib import Path

import pytest

import casimir_sense as cs
from casimir_sense import cli

from test_cli import _failing_at, parse_rows, unique_prefixes

SPEC = importlib.util.spec_from_file_location(
    "survey_data",
    Path(__file__).resolve().parent.parent / "scripts" / "survey_data.py")
survey = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(survey)

#: each file's column row, as the script has always written it
COLUMNS = {
    "conductivity_vs_mu.csv":
        "mu_over_hbar_omega0,re_sigma_sigma0,im_sigma_sigma0",
    "scattering_map_mu0.csv": "d_m,laser_detuning_gamma0,f_over_f0",
    "scattering_map_mu08.csv": "d_m,laser_detuning_gamma0,f_over_f0",
    "sensitivity_grid.csv":
        "d_m,mu_over_hbar_omega0,kappa_inv_m_rthz,merit,quantum_regime",
    "gradient_vs_distance.csv": "d_m,g_abs_rad_s_per_m",
    "squeezing_trajectories.csv": "quality_factor,damping,t_s,vx,vp,vxp",
}


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("survey")
    assert survey.main(["--quick", "--outdir", str(outdir)]) == 0
    return outdir


def test_every_file_has_the_cli_header_and_its_columns(quick_run):
    assert sorted(p.name for p in quick_run.iterdir()) == sorted(COLUMNS)
    for name, columns in COLUMNS.items():
        lines = (quick_run / name).read_text().splitlines()
        assert lines[0] == f"# casimir-sense {cs.__version__}"
        assert lines[1] == f"# command: survey_data.py --quick --outdir " \
                           f"{quick_run}"
        first = next(i for i, line in enumerate(lines)
                     if not line.startswith("#"))
        assert "# [geometry]" in lines[:first]
        assert lines[first] == columns
        assert len(lines) > first + 1
        for cell in (c for line in lines[first + 1:] for c in line.split(",")):
            assert cell.lstrip("+-").lower() not in ("inf", "nan")
            assert cell not in ("True", "False")
    # a map's header echoes the scenario of its own sheet
    assert "# mu_over_hbar_omega0 = 0.0" in \
        (quick_run / "scattering_map_mu0.csv").read_text().splitlines()


def test_full_conductivity_grid_leaves_the_interband_edge_empty(tmp_path):
    # the file's first table of the full run, written as main writes it
    s = cs.reference_scenario()
    name, s_file, columns, rows = next(survey.tables(s, False))
    cli.write_csv(tmp_path / name, s_file, ["survey_data.py"], columns, rows)
    header, rows = parse_rows((tmp_path / name).read_text())
    assert ",".join(header) == COLUMNS[name]
    assert len(rows) == 121
    empty = [float(r[0]) for r in rows if r[2] == ""]
    assert empty == [0.5]       # Im sigma is log-divergent at mu = 0.5


def test_a_failed_point_keeps_the_rows_before_it(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(cs, "scattering_rate_map",
                        _failing_at(3, cs.scattering_rate_map))
    code = survey.main(["--quick", "--outdir", str(tmp_path)])
    path = tmp_path / "scattering_map_mu0.csv"
    assert code == cli.NUMERICAL_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {path}: injected failure")
    assert "Traceback" not in err
    header, rows = parse_rows(path.read_text())
    assert ",".join(header) == COLUMNS[path.name]
    # one call per distance: the whole rows of the first two distances of
    # the quick grid, each of its six detunings
    assert len(rows) == 2 * 6
    assert not (tmp_path / "scattering_map_mu08.csv").exists()


def test_a_physicality_violation_exits_4(tmp_path, monkeypatch, capsys):
    def unphysical(*args, **kwargs):
        raise cs.PhysicalityError(1e-7, 0.5)

    monkeypatch.setattr(cs, "simulate", unphysical)
    code = survey.main(["--quick", "--outdir", str(tmp_path)])
    path = tmp_path / "squeezing_trajectories.csv"
    assert code == cli.PHYSICALITY_ERROR
    assert capsys.readouterr().err.startswith(
        f"physicality violation: {path}: covariance unphysical")
    header, rows = parse_rows(path.read_text())
    assert ",".join(header) == COLUMNS[path.name] and rows == []


def test_an_outdir_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    # exit 2 and a message, not a FileExistsError traceback
    path = tmp_path / "survey"
    path.write_text("")
    assert survey.main(["--quick", "--outdir", str(path)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err
    assert "Traceback" not in err


#: every flag of the script
FLAGS = ("--outdir", "--quick", "--help")


@pytest.mark.parametrize("flag, prefix", unique_prefixes(FLAGS),
                         ids=[p for _, p in unique_prefixes(FLAGS)])
def test_an_abbreviated_flag_is_unrecognized(tmp_path, monkeypatch, capsys,
                                             flag, prefix):
    # '--out survey' would otherwise write into survey/ and echo '--out'
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        survey.main([prefix, *(["survey"] if flag == "--outdir" else []),
                     "--quick"])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {prefix}" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
