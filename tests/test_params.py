import math
from dataclasses import replace

import pytest

import casimir_sense as cs
from casimir_sense.params import ConfigError


def test_constants_identities():
    c = cs.CONSTANTS
    assert c.alpha == pytest.approx(
        c.e**2 / (4 * math.pi * c.eps0 * c.hbar * c.c), rel=1e-12)
    # CODATA 2018 alpha, and the identity the SI values must satisfy
    assert abs(c.alpha / 7.2973525693e-3 - 1.0) <= 1e-9
    assert abs(c.c**2 * c.eps0 * c.mu0 - 1.0) <= 1e-12
    assert c.sigma0 == pytest.approx(6.085e-5, rel=1e-3)
    with pytest.raises(AttributeError):
        c.c = 3e8                     # the one set is read-only
    with pytest.raises(AttributeError):
        c.hbar_over_c = 1.0


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


@pytest.mark.parametrize("key, field", [
    ("lambda0_m", "emitter.lambda0"), ("gamma0_rad_s", "emitter.gamma0"),
    ("mu_over_hbar_omega0", "graphene.mu"),
    ("omega0_over_gamma_g", "graphene.omega0_over_gamma_g"),
    ("omega_m_rad_s", "mechanics.omega_m"), ("mass_kg", "mechanics.mass"),
    ("quality_factor", "mechanics.quality"),
    ("bath_temperature_k", "mechanics.t_bath"),
    ("epsilon", "drive.epsilon"), ("eta_det", "drive.eta_det"),
    ("distance_m", "distance")])
def test_load_rejects_an_infinite_value_by_field(config_text, key, field):
    # by name here, not deep in the quadrature (distance) or as a numerical
    # failure (mu)
    text = config_text.replace("[graphene]",
                               "[graphene]\nomega0_over_gamma_g = 1e3")
    lines = [f"{key} = inf" if line.split(" = ")[0] == key else line
             for line in text.splitlines()]
    assert f"{key} = inf" in lines
    with pytest.raises(ConfigError, match=rf"^{field}\b"):
        cs.load_scenario("\n".join(lines))


@pytest.mark.parametrize("key, field", [
    ("omega_m_rad_s", "omega_m"), ("mass_kg", "mass"),
    ("quality_factor", "quality")])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_mechanics_names_the_nonpositive_field(config_text, key, field,
                                               value):
    message = rf"^mechanics\.{field} must be positive$"
    ref = cs.reference_scenario().mechanics
    with pytest.raises(ConfigError, match=message):
        replace(ref, **{field: float(value)})
    lines = [f"{key} = {value}" if line.split(" = ")[0] == key else line
             for line in config_text.splitlines()]
    assert f"{key} = {value}" in lines
    with pytest.raises(ConfigError, match=message):
        cs.load_scenario("\n".join(lines))


def test_load_reports_missing_key(config_text):
    bad = config_text.replace("mass_kg = 2.81e-18\n", "")
    with pytest.raises(ConfigError, match="mechanics.mass_kg"):
        cs.load_scenario(bad)


def test_load_reports_non_numeric(config_text):
    # values are plain numbers: no % interpolation, so no raw
    # InterpolationSyntaxError and no silent substitution
    for value in ("strong", "30%", "%(eta_det)s"):
        bad = config_text.replace("epsilon = 0.3", f"epsilon = {value}")
        with pytest.raises(ConfigError,
                           match="^non-numeric value for drive.epsilon"):
            cs.load_scenario(bad)


def test_load_reads_values_by_key(config_text, monkeypatch):
    # not by their position in the format table
    texts = (REFERENCE_CONFIG, config_text)
    expected = [cs.load_scenario(text) for text in texts]
    monkeypatch.setattr(cs.params, "_FORMAT", cs.params._FORMAT[::-1])
    assert [cs.load_scenario(text) for text in texts] == expected
    assert expected[0] == cs.reference_scenario()


def test_thermal_occupation_at_one_kelvin():
    m = cs.MechanicalParams(omega_m=2 * math.pi * 1e6, mass=2.81e-18,
                            quality=5e4, t_bath=1.0)
    # kB * 1 K / (hbar * 2pi MHz), CODATA values
    assert m.n_th == pytest.approx(20836.619136, rel=1e-9)
    assert m.x_zpm**2 * m.mass * m.omega_m == pytest.approx(cs.CONSTANTS.hbar,
                                                            rel=1e-12)
    assert m.gamma == pytest.approx(m.omega_m / m.quality, rel=1e-15)


def test_load_reports_missing_section(config_text):
    bad = config_text.replace("[geometry]", "[geometria]")
    with pytest.raises(ConfigError, match=r"missing section \[geometry\]"):
        cs.load_scenario(bad)


def test_load_rejects_unknown_sections_and_keys(config_text):
    # misspelled optional keys would silently take their defaults
    bad = config_text.replace(
        "mu_over_hbar_omega0 = 0.8",
        "mu_over_hbar_omega0 = 0.8\nomega0_over_gamma = 1e7\nsigma_zer0 = true")
    with pytest.raises(ConfigError, match=r"graphene\.omega0_over_gamma, "
                                          r"graphene\.sigma_zer0$"):
        cs.load_scenario(bad)
    # the transparent-sheet key of earlier versions is no longer known
    with pytest.raises(ConfigError, match=r": graphene\.sigma_zero$"):
        cs.load_scenario(config_text.replace(
            "mu_over_hbar_omega0 = 0.8",
            "mu_over_hbar_omega0 = 0.8\nsigma_zero = false"))
    with pytest.raises(ConfigError, match=r"\[DEFAULT\], \[drives\]$"):
        cs.load_scenario("[DEFAULT]\nepsilon = 0.3\n" + config_text
                         + "\n[drives]\neta_det = 0.5\n")
    # one spelling per key: lowercase, then '='; an upper-case key is
    # unknown, not a missing lambda0_m
    with pytest.raises(ConfigError, match=r": emitter\.LAMBDA0_M$"):
        cs.load_scenario(config_text.replace("lambda0_m =", "LAMBDA0_M ="))
    with pytest.raises(ConfigError, match=r"^config does not parse"):
        cs.load_scenario(config_text.replace("lambda0_m =", "lambda0_m:"))


def test_config_round_trip(ref_scenario):
    clean = replace(ref_scenario, graphene=cs.GrapheneParams(
        mu=ref_scenario.graphene.mu,
        gamma_g=ref_scenario.emitter.omega0 / 1e7))
    for scenario in (ref_scenario, clean):
        text = cs.scenario_to_config(scenario)
        assert cs.load_scenario(text) == scenario


REFERENCE_CONFIG = """\
[emitter]
lambda0_m = 2e-06
gamma0_rad_s = 1507964473.7231007

[graphene]
mu_over_hbar_omega0 = 0.8
omega0_over_gamma_g = 1000.0

[mechanics]
omega_m_rad_s = 6283185.307179586
mass_kg = 2.81e-18
quality_factor = 50000.0
bath_temperature_k = 1.0

[drive]
epsilon = 0.3
eta_det = 0.75

[geometry]
distance_m = 1.8e-08
"""


def test_reference_config_text_is_pinned():
    # a round trip cannot see a key renamed on both sides; every CSV header
    # echoes this text, so it is pinned literally
    assert cs.scenario_to_config(cs.reference_scenario()) == REFERENCE_CONFIG


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
