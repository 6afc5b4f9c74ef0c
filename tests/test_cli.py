import argparse
import math
import shlex
from dataclasses import replace
from itertools import takewhile

import numpy as np
import pytest

import casimir_sense as cs
from casimir_sense import cli
from casimir_sense.cli import main


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def parse_rows(text):
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]
    return rows[0], rows[1:]


def test_conductivity_reproduces_regime_boundaries(tmp_path):
    # grid includes the T = 0 interband edge mu = 0.5 exactly, where Im sigma
    # is log-divergent (emitted as an empty field)
    code, text = run_cli(["conductivity", "--mu-min", "0.40", "--mu-max",
                          "0.80", "--mu-count", "41"], tmp_path)
    assert code == 0
    _, rows = parse_rows(text)
    mu = np.array([float(r[0]) for r in rows])
    re = np.array([float(r[1]) for r in rows])
    im = np.array([float(r[2]) if r[2] else -np.inf for r in rows])
    # interband step: Re sigma drops by ~sigma0 across mu = 0.5
    assert re[mu < 0.5][-1] - re[mu > 0.5][0] == pytest.approx(1.0, abs=0.01)
    # Im sigma changes sign within 0.05 of mu = 0.6
    crossings = mu[:-1][np.diff(np.sign(im)) > 0]
    crossings = crossings[np.abs(crossings - 0.5) > 0.02]   # skip the edge
    assert len(crossings) == 1
    assert abs(crossings[0] - 0.6) < 0.05


def test_conductivity_single_point_undoped(tmp_path):
    code, text = run_cli(["conductivity", "--mu-min", "0", "--mu-max", "0",
                          "--mu-count", "1"], tmp_path)
    assert code == 0
    _, rows = parse_rows(text)
    assert float(rows[0][1]) == pytest.approx(1.0, rel=1e-12)
    assert float(rows[0][2]) == 0.0


def test_conductivity_empty_range_is_usage_error(tmp_path):
    code, _ = run_cli(["conductivity", "--mu-min", "0.8", "--mu-max", "0.2",
                       "--mu-count", "5"], tmp_path)
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_conductivity_non_finite_omega_is_usage_error(tmp_path, capsys,
                                                      value):
    # not a file of empty sigma cells with exit code 0
    code, text = run_cli(["conductivity", "--omega", value], tmp_path)
    assert code == 2 and text == ""
    assert "omega must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("args, end", [
    (["--d-min", "nan", "--d-max", "nan", "--d-count", "1"], "--d-min"),
    (["--d-max", "inf"], "--d-max"),
    (["--d-max", "nan", "--log-d"], "--d-max")])
def test_non_finite_axis_end_is_usage_error(tmp_path, capsys, args, end):
    # not "requires equal endpoints", nor a sweep of nan distances
    code, text = run_cli(["interaction", *args], tmp_path)
    assert code == 2 and text == ""
    assert f"{end} must be finite" in capsys.readouterr().err


def test_bad_config_path_is_usage_error(tmp_path):
    code, _ = run_cli(["conductivity", "--config", str(tmp_path / "nope.ini")],
                      tmp_path)
    assert code == 2


@pytest.mark.parametrize("flag", ["--config", "--out"])
def test_directory_path_is_usage_error(tmp_path, capsys, flag):
    # an IsADirectoryError is an OSError, like the missing config above
    args = ["interaction", "--d-min", "18e-9", "--d-max", "18e-9",
            "--d-count", "1"]
    code = main([*args, flag, str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_invalid_config_value_is_usage_error(tmp_path, config_text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(config_text.replace("distance_m = 18e-9",
                                       "distance_m = -1"))
    code, _ = run_cli(["conductivity", "--config", str(cfg)], tmp_path)
    assert code == 2


@pytest.mark.parametrize("command, flag, field", [
    (["squeeze"], "--distance", "distance"),
    (["interaction", "--d-min", "18e-9", "--d-max", "18e-9", "--d-count", "1"],
     "--mu", "graphene.mu")], ids=["--distance-distance", "--mu-graphene.mu"])
def test_nan_override_is_usage_error(tmp_path, capsys, command, flag, field):
    code, _ = run_cli([*command, flag, "nan"], tmp_path)
    assert code == 2
    assert field in capsys.readouterr().err


#: a cheap run of each subcommand; TAKEN, the scenario overrides it takes
CHEAP_RUNS = {
    "conductivity": ["--mu-min", "0.8", "--mu-max", "0.8", "--mu-count", "1"],
    "interaction": ["--d-min", "18e-9", "--d-max", "18e-9", "--d-count", "1"],
    "sensitivity": ["--d-min", "18e-9", "--d-max", "18e-9", "--d-count", "1",
                    "--mu-min", "0.8", "--mu-max", "0.8", "--mu-count", "1"],
    "squeeze": ["--t-end", "1e-7"],
}
TAKEN = {"conductivity": (), "interaction": ("--mu",),
         "sensitivity": ("--epsilon", "--eta-det"),
         "squeeze": ("--distance", "--mu", "--epsilon", "--eta-det")}
#: each override's value, and the scenario it resolves to
OVERRIDES = {
    "--distance": ("20e-9", lambda s: replace(s, distance=20e-9)),
    "--mu": ("0.6", lambda s: cli.with_mu(s, 0.6)),
    "--epsilon": ("0.2",
                  lambda s: replace(s, drive=replace(s.drive, epsilon=0.2))),
    "--eta-det": ("0.5",
                  lambda s: replace(s, drive=replace(s.drive, eta_det=0.5))),
}


@pytest.fixture(scope="module")
def plain_rows(tmp_path_factory):
    """The data rows of each cheap run without an override."""
    rows = {}
    for command, args in CHEAP_RUNS.items():
        _, text = run_cli([command, *args], tmp_path_factory.mktemp(command))
        rows[command] = parse_rows(text)[1]
    return rows


@pytest.mark.parametrize("flag", OVERRIDES)
@pytest.mark.parametrize("command", CHEAP_RUNS)
def test_each_command_takes_only_the_overrides_its_rows_read(
        tmp_path, capsys, plain_rows, command, flag):
    # a flag that changed no row would only rewrite the header; --mu is
    # unknown, not a prefix of the --mu-* axis flags
    args = [command, *CHEAP_RUNS[command], flag, OVERRIDES[flag][0]]
    if flag not in TAKEN[command]:
        with pytest.raises(SystemExit) as exc:
            run_cli(args, tmp_path)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("casimir-sense")
        assert f"error: unrecognized arguments: {flag} " in err
        assert not (tmp_path / "out.csv").exists()
        return
    code, text = run_cli(args, tmp_path)
    assert code == 0
    assert parse_rows(text)[1] != plain_rows[command]


@pytest.mark.parametrize("command", CHEAP_RUNS)
def test_header_loads_back_to_the_resolved_scenario(tmp_path, config_text,
                                                    command):
    # README: the '#' header makes a file reproducible from itself
    cfg = tmp_path / "q5e3.ini"
    cfg.write_text(config_text.replace("quality_factor = 5e4",
                                       "quality_factor = 5e3"))
    expected = cs.load_scenario(cfg.read_text())
    args = [command, *CHEAP_RUNS[command], "--config", str(cfg)]
    for flag in TAKEN[command]:
        args += [flag, OVERRIDES[flag][0]]
        expected = OVERRIDES[flag][1](expected)
    code, text = run_cli(args, tmp_path)
    assert code == 0
    # the header's version and command lines, then the scenario block
    block = list(takewhile(lambda l: l.startswith("#"), text.splitlines()))
    assert block[2] == "# [emitter]"
    assert cs.load_scenario("\n".join(l[2:] for l in block[2:])) == expected


def test_percent_in_config_is_usage_error(tmp_path, capsys, config_text):
    # a plain number is expected: no interpolation, no traceback
    cfg = tmp_path / "percent.ini"
    cfg.write_text(config_text.replace("epsilon = 0.3", "epsilon = 30%"))
    code, text = run_cli(["conductivity", "--config", str(cfg)], tmp_path)
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: non-numeric value for drive.epsilon")
    assert "Traceback" not in err


def test_environment_config_variable_is_ignored(tmp_path, config_text,
                                               monkeypatch):
    # a run's scenario is what its command line names: a variable left in
    # the shell by earlier versions changes no byte
    cfg = tmp_path / "env.ini"
    cfg.write_text(config_text.replace("quality_factor = 5e4",
                                       "quality_factor = 5e3"))
    args = ["squeeze", *CHEAP_RUNS["squeeze"], "--record-every", "100"]
    _, plain = run_cli(args, tmp_path)
    monkeypatch.setenv("CASIMIR_SENSE_CONFIG", str(cfg))
    code, text = run_cli(args, tmp_path)
    assert code == 0 and text == plain
    assert "quality_factor = 50000.0" in text


@pytest.mark.parametrize("command", CHEAP_RUNS)
def test_header_command_reruns_to_the_same_rows(tmp_path, config_text,
                                                command):
    # the '#' header is a command line and a config: run together they
    # give the file again
    cfg = tmp_path / "q5e3.ini"
    cfg.write_text(config_text.replace("quality_factor = 5e4",
                                       "quality_factor = 5e3"))
    args = [command, *CHEAP_RUNS[command], "--config", str(cfg)]
    for flag in TAKEN[command]:
        args += [flag, OVERRIDES[flag][0]]
    code, text = run_cli(args, tmp_path)
    assert code == 0
    header = list(takewhile(lambda l: l.startswith("#"), text.splitlines()))
    assert header[1].startswith("# command: casimir-sense ")
    rerun = tmp_path / "rerun.ini"
    rerun.write_text("\n".join(l[2:] for l in header[2:]))
    argv = shlex.split(header[1][len("# command: "):])[1:]
    code, again = run_cli([*argv, "--config", str(rerun)], tmp_path,
                          "again.csv")
    assert code == 0
    data = lambda t: [l for l in t.splitlines() if not l.startswith("#")]
    assert len(data(text)) > 1 and data(again) == data(text)


def test_header_command_quotes_a_path_with_a_space(tmp_path):
    args = ["conductivity", *CHEAP_RUNS["conductivity"]]
    code, text = run_cli(args, tmp_path, "my run.csv")
    assert code == 0
    line = text.splitlines()[1]
    assert line.endswith(f" --out '{tmp_path / 'my run.csv'}'")
    assert shlex.split(line[len("# command: "):]) == [
        "casimir-sense", *args, "--out", str(tmp_path / "my run.csv")]


def unique_prefixes(flags):
    """(flag, prefix) for each strict prefix of each '--' flag of ``flags``
    that starts no other of them: the spellings argparse would abbreviate."""
    flags = [f for f in flags if f.startswith("--")]
    return [(flag, flag[:n]) for flag in flags for n in range(3, len(flag))
            if sum(f.startswith(flag[:n]) for f in flags) == 1]


SUBCOMMANDS = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
PREFIXES = [(command, flag, prefix)
            for command, parser in SUBCOMMANDS.items()
            for flag, prefix in unique_prefixes(parser._option_string_actions)]
#: a value for each flag that takes one and has no default
NO_DEFAULT = {"--config": "none.ini", "--out": "prefix.csv", "--tau": "1e-9",
              "--record-every": "1",
              **{flag: value for flag, (value, _) in OVERRIDES.items()}}


def test_every_subcommand_flag_is_covered_by_the_prefix_cases():
    # 38 flags, --help among them, and 122 abbreviations: were the parsers
    # not found, the test below would pass with no case at all
    assert len({(c, f) for c, f, _ in PREFIXES}) == 38
    assert len(PREFIXES) == 122


@pytest.mark.parametrize("command, flag, prefix", PREFIXES,
                         ids=[f"{c} {p}" for c, _, p in PREFIXES])
def test_an_abbreviated_flag_is_unrecognized(tmp_path, monkeypatch, capsys,
                                             command, flag, prefix):
    # only a full name is taken, so the '# command:' line names the flag
    # that set each value; a run's own flags follow, so that were the
    # prefix taken, it would run cheaply
    action = SUBCOMMANDS[command]._option_string_actions[flag]
    value = [] if action.nargs == 0 else \
        [NO_DEFAULT[flag] if action.default is None else str(action.default)]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli([command, prefix, *value, *CHEAP_RUNS[command]], tmp_path)
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {prefix}" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sigma_zero_flag_is_gone(capsys):
    # the transparent-sheet override of earlier versions is an unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["interaction", "--sigma-zero"])
    assert exc.value.code == 2
    assert "--sigma-zero" in capsys.readouterr().err


def test_interaction_row_matches_library(tmp_path, ref_scenario, ref_coupling):
    code, text = run_cli(["interaction", "--d-min", "18e-9", "--d-max",
                          "18e-9", "--d-count", "1"], tmp_path)
    assert code == 0
    header, rows = parse_rows(text)
    row = dict(zip(header, (float(v) for v in rows[0])))
    ir, cg, _ = ref_coupling
    assert row["delta_omega_rad_s"] == pytest.approx(ir.delta_omega, rel=1e-6)
    assert row["gamma_rad_s"] == pytest.approx(ir.gamma, rel=1e-6)
    assert row["g_abs_rad_s_per_m"] == pytest.approx(abs(cg.g_value), rel=1e-3)


def test_interaction_output_is_deterministic(tmp_path):
    args = ["interaction", "--d-min", "10e-9", "--d-max", "30e-9",
            "--d-count", "3"]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, first = run_cli(args, tmp_path / "a")
    _, second = run_cli(args, tmp_path / "b")
    # identical invocation, bit-identical output (headers echo the out path)
    strip = lambda t: [l for l in t.splitlines() if "out.csv" not in l]
    assert strip(first) == strip(second)
    assert first.replace(str(tmp_path / "a"), "X") \
        == second.replace(str(tmp_path / "b"), "X")


def test_log_axis_needs_positive_minimum(tmp_path, capsys):
    code, text = run_cli(["interaction", "--log-d", "--d-min", "0",
                          "--d-max", "20e-9", "--d-count", "3"], tmp_path)
    assert code == 2 and text == ""
    assert "log scale needs positive --d-min" in capsys.readouterr().err


def _failing_at(n, fn):
    """fn, except that its n-th call raises QuadratureError."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        if len(calls) == n:
            raise cs.QuadratureError("injected failure", 1.0)
        return fn(*args, **kwargs)

    return wrapped


def test_interaction_keeps_the_rows_before_a_failed_point(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(cli, "interaction_and_gradient",
                        _failing_at(3, cli.interaction_and_gradient))
    code, text = run_cli(["interaction", "--d-min", "10e-9", "--d-max",
                          "40e-9", "--d-count", "4"], tmp_path)
    assert code == 3
    header, rows = parse_rows(text)
    assert header[0] == "d_m"
    assert [float(r[0]) for r in rows] == [10e-9, 20e-9]


def test_quadrature_failure_names_the_integral_and_the_point(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    monkeypatch.setattr(cs.quadrature, "_MAX_DOUBLINGS", 1)
    code, text = run_cli(["interaction", "--d-min", "18e-9", "--d-max",
                          "18e-9", "--d-count", "1"], tmp_path)
    err = capsys.readouterr().err
    header, rows = parse_rows(text)
    assert code == 3 and header[0] == "d_m" and rows == []
    assert err.startswith("numerical failure: quadrature did not converge in "
                          "the ")
    assert " of the ground shift at d = 1.8e-08 m, mu = 0.8 hbar*omega0, " \
           "omega0/gamma_g = 1000 (residual estimate " in err


def test_sensitivity_keeps_the_rows_before_a_failed_point(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(cli, "evaluate_coupling",
                        _failing_at(2, cli.evaluate_coupling))
    code, text = run_cli(["sensitivity", "--d-min", "18e-9", "--d-max",
                          "18e-9", "--d-count", "1", "--mu-min", "0.6",
                          "--mu-max", "0.8", "--mu-count", "2"], tmp_path)
    assert code == 3
    header, rows = parse_rows(text)
    assert header[-1] == "quantum_regime"
    assert [r[1] for r in rows] == [f"{0.6:.12e}"]


def test_sensitivity_grid_row_major_and_flags(tmp_path):
    code, text = run_cli(["sensitivity", "--d-min", "15e-9", "--d-max",
                          "25e-9", "--d-count", "2", "--mu-min", "0.6",
                          "--mu-max", "0.8", "--mu-count", "2"], tmp_path)
    assert code == 0
    header, rows = parse_rows(text)
    ds = [float(r[0]) for r in rows]
    mus = [float(r[1]) for r in rows]
    assert ds == [15e-9, 15e-9, 25e-9, 25e-9]
    assert mus == [0.6, 0.8, 0.6, 0.8]
    assert all(r[4] in ("true", "false") for r in rows)


def test_sensitivity_point_matches_library(tmp_path, ref_coupling):
    code, text = run_cli(["sensitivity", "--d-min", "18e-9", "--d-max",
                          "18e-9", "--d-count", "1", "--mu-min", "0.8",
                          "--mu-max", "0.8", "--mu-count", "1"], tmp_path)
    assert code == 0
    _, rows = parse_rows(text)
    _, _, cr = ref_coupling
    assert float(rows[0][2]) == pytest.approx(cr.kappa_inv_si, rel=1e-6)
    assert float(rows[0][3]) == pytest.approx(cr.merit, rel=1e-6)
    assert rows[0][4] == "true"    # quantum regime holds at this point


def test_sensitivity_zero_efficiency_reports_absent(tmp_path):
    code, text = run_cli(["sensitivity", "--d-min", "18e-9", "--d-max",
                          "18e-9", "--d-count", "1", "--mu-min", "0.8",
                          "--mu-max", "0.8", "--mu-count", "1",
                          "--eta-det", "0"], tmp_path)
    assert code == 0
    _, rows = parse_rows(text)
    d, mu, kinv, merit, flag = rows[0]
    assert kinv == ""              # kappa^-1 unbounded, reported absent
    assert flag == "false"


def test_squeeze_without_coupling_stays_thermal(tmp_path, ref_scenario):
    # eta_det = 0 detects nothing, so nothing squeezes: the undetected
    # back-action only heats the thermal state, by under 1e-3 in 0.4 us
    code, text = run_cli(["squeeze", "--eta-det", "0", "--t-end", "4e-7",
                          "--damping", "momentum"], tmp_path)
    assert code == 0
    _, rows = parse_rows(text)
    vx = np.array([float(r[1]) for r in rows])
    v_th = 2 * ref_scenario.mechanics.n_th + 1
    assert np.all(vx / v_th - 1 > -1e-12)
    assert np.all(vx / v_th - 1 < 1e-3)
    assert f"min_vx = " in text
    assert text.splitlines()[-1].startswith("# summary")


def test_squeeze_damping_discrimination(tmp_path, config_text):
    cfg = tmp_path / "q5e3.ini"
    cfg.write_text(config_text.replace("quality_factor = 5e4",
                                       "quality_factor = 5e3"))
    t_end = 0.05 / (2 * math.pi * 1e6)
    outs = {}
    for kind in ("momentum", "symmetric"):
        code, text = run_cli(["squeeze", "--config", str(cfg), "--damping",
                              kind, "--t-end", f"{t_end}", "--record-every",
                              "1000000"], tmp_path, f"{kind}.csv")
        assert code == 0
        _, rows = parse_rows(text)
        outs[kind] = float(rows[-1][1])
        assert rows[-1][5] == kind
        assert rows[-1][4] == "rotating"
    assert outs["momentum"] < outs["symmetric"]


def test_squeeze_riccati_failure_is_a_numerical_error(tmp_path,
                                                     monkeypatch):
    def no_steady_state(*args, **kwargs):
        raise cs.dynamics.RiccatiError("injected failure")

    monkeypatch.setattr(cli, "simulate", no_steady_state)
    code, _ = run_cli(["squeeze", "--t-end", "1e-7"], tmp_path)
    assert code == 3


def test_squeeze_nonpositive_t_end_is_usage_error(tmp_path, capsys):
    code, text = run_cli(["squeeze", "--t-end=-1e-6"], tmp_path)
    assert code == 2 and text == ""
    assert "t_end must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--t-end", "--tau"])
def test_squeeze_infinite_time_is_usage_error(tmp_path, capsys, flag):
    # a usage error, not an OverflowError (t_end) or a physicality failure
    # at t = inf (tau)
    code, text = run_cli(["squeeze", flag, "inf"], tmp_path)
    assert code == 2 and text == ""
    assert f"{flag[2:].replace('-', '_')} must be positive and finite" \
        in capsys.readouterr().err


@pytest.mark.parametrize("args, reason", [
    (["--t-end", "1e300"], "t_end / tau is not finite"),
    (["--t-end", "1", "--tau", "1e-320"], "t_end / tau is not finite"),
    (["--tau", "1e-18", "--record-every", "1"], "more than 16777216 records"),
    (["--t-end", "1e-12"], "rounds to 0 steps"),
])
def test_squeeze_out_of_range_record_grid_is_usage_error(tmp_path, capsys,
                                                         args, reason):
    # an OverflowError or a numpy MemoryError without the check
    code, text = run_cli(["squeeze", *args], tmp_path)
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and reason in err
    assert "Traceback" not in err
    assert all(f"{name} = " in err for name in ("t_end", "tau",
                                               "record_every"))


def test_squeeze_reports_subunity_minimum(tmp_path):
    # default scenario, momentum damping: conditional squeezing within 3 us
    code, text = run_cli(["squeeze", "--t-end", "3e-6", "--record-every",
                          "100"], tmp_path)
    assert code == 0
    summary = text.splitlines()[-1]
    v_min = float(summary.split("min_vx = ")[1].split(" ")[0])
    assert v_min < 1.0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
