import math

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
            "--d-count", "1", "--sigma-zero"]
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


@pytest.mark.parametrize("flag, field", [("--distance", "distance"),
                                         ("--mu", "graphene.mu")])
def test_nan_override_is_usage_error(tmp_path, capsys, flag, field):
    code, _ = run_cli(["interaction", "--d-min", "18e-9", "--d-max", "18e-9",
                       "--d-count", "1", flag, "nan"], tmp_path)
    assert code == 2
    assert field in capsys.readouterr().err


def test_env_var_config_is_honored(tmp_path, config_text, monkeypatch):
    cfg = tmp_path / "env.ini"
    cfg.write_text(config_text.replace("mu_over_hbar_omega0 = 0.8",
                                       "mu_over_hbar_omega0 = 0.33"))
    monkeypatch.setenv("CASIMIR_SENSE_CONFIG", str(cfg))
    code, text = run_cli(["interaction", "--d-min", "18e-9", "--d-max",
                          "18e-9", "--d-count", "1", "--sigma-zero"], tmp_path)
    assert code == 0
    assert "mu_over_hbar_omega0 = 0.33" in text


def test_interaction_sigma_zero_rows(tmp_path):
    code, text = run_cli(["interaction", "--d-min", "18e-9", "--d-max",
                          "18e-9", "--d-count", "1", "--sigma-zero"], tmp_path)
    assert code == 0
    header, rows = parse_rows(text)
    row = dict(zip(header, (float(v) for v in rows[0])))
    assert row["delta_g_rad_s"] == 0.0
    assert row["delta_omega_rad_s"] == 0.0
    assert row["gamma_rad_s"] == pytest.approx(2 * math.pi * 240e6, rel=1e-6)
    assert row["gamma_nonrad_rad_s"] == 0.0
    assert row["g_abs_rad_s_per_m"] == 0.0


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
    code, text = run_cli(["squeeze", "--sigma-zero", "--t-end", "4e-7",
                          "--damping", "momentum"], tmp_path)
    assert code == 0
    _, rows = parse_rows(text)
    vx = np.array([float(r[1]) for r in rows])
    v_th = 2 * ref_scenario.mechanics.n_th + 1
    assert np.all(np.abs(vx / v_th - 1) < 1e-3)
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
