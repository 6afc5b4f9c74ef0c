import math

import pytest

import casimir_sense as cs
from casimir_sense.params import ConfigError


def test_constants_identities():
    c = cs.CONSTANTS
    assert c.alpha == pytest.approx(
        c.e**2 / (4 * math.pi * c.eps0 * c.hbar * c.c), rel=1e-12)
    assert c.c**2 * c.eps0 * c.mu0 == pytest.approx(1.0, rel=1e-12)
    assert c.sigma0 == pytest.approx(6.085e-5, rel=1e-3)


def test_load_paper_operating_point(config_text):
    s = cs.load_scenario(config_text)
    assert s.emitter.lambda0 == pytest.approx(2e-6, rel=1e-12)
    assert s.emitter.gamma0 == pytest.approx(2 * math.pi * 240e6, rel=1e-6)
    assert s.graphene.mu == pytest.approx(0.8 * s.emitter.omega0, rel=1e-12)
    assert s.graphene.gamma_g == pytest.approx(s.emitter.omega0 / 1e3, rel=1e-12)
    assert s.mechanics.mass == 2.81e-18
    assert s.drive.epsilon == 0.3
    assert s.drive.eta_det == 0.75
    assert s.distance == 18e-9


def test_load_rejects_zero_distance(config_text):
    for value in ("0", "nan"):
        bad = config_text.replace("distance_m = 18e-9", f"distance_m = {value}")
        with pytest.raises(ConfigError, match="distance must be positive"):
            cs.load_scenario(bad)


def test_load_reports_missing_key(config_text):
    bad = config_text.replace("mass_kg = 2.81e-18\n", "")
    with pytest.raises(ConfigError, match="mechanics.mass_kg"):
        cs.load_scenario(bad)


def test_load_reports_non_numeric(config_text):
    bad = config_text.replace("epsilon = 0.3", "epsilon = strong")
    with pytest.raises(ConfigError, match="drive.epsilon"):
        cs.load_scenario(bad)


def test_thermal_occupation_at_one_kelvin():
    m = cs.MechanicalParams(omega_m=2 * math.pi * 1e6, mass=2.81e-18,
                            quality=5e4, t_bath=1.0)
    # kB * 1 K / (hbar * 2pi MHz), CODATA values
    assert m.n_th == pytest.approx(20836.619136, rel=1e-9)
    assert m.x_zpm**2 * m.mass * m.omega_m == pytest.approx(cs.CONSTANTS.hbar,
                                                            rel=1e-12)
    assert m.gamma == pytest.approx(m.omega_m / m.quality, rel=1e-15)


def test_config_round_trip(ref_scenario):
    text = cs.scenario_to_config(ref_scenario)
    s = cs.load_scenario(text)
    assert s == ref_scenario


def test_drive_validation():
    with pytest.raises(ConfigError):
        cs.DriveParams(epsilon=0.0, eta_det=0.5)
    with pytest.raises(ConfigError):
        cs.DriveParams(epsilon=0.3, eta_det=1.5)


def test_parameter_classes_carry_no_instance_dict(ref_scenario):
    # slotted: a sweep keeps thousands of scenarios alive
    parts = (ref_scenario, ref_scenario.emitter, ref_scenario.graphene,
             ref_scenario.mechanics, ref_scenario.drive)
    assert [type(p).__name__ for p in parts if hasattr(p, "__dict__")] == []
    assert ref_scenario.constants is cs.CONSTANTS
