import math
from types import SimpleNamespace

import numpy as np
import pytest

import casimir_sense as cs
from casimir_sense.interaction import CouplingGradient, InteractionResult


def fake_interaction(gamma=2e9, rad_fraction=0.54):
    return InteractionResult(delta_g=-1e11, delta_e=2e11,
                             gamma_rad=rad_fraction * gamma,
                             gamma_nonrad=(1 - rad_fraction) * gamma)


def fake_gradient(g=1.0e20):
    return CouplingGradient(g_value=-g, error_estimate=1e16)


def fake_scenario(epsilon, eta_det):
    """What kappa reads of a scenario, with x_zpm = 1 so that g_bar is in
    rad/s per m; epsilon = 0 lies outside DriveParams' open interval."""
    return SimpleNamespace(
        drive=SimpleNamespace(epsilon=epsilon, eta_det=eta_det),
        mechanics=SimpleNamespace(x_zpm=1.0, omega_m=1.0))


def test_kappa_renormalized_coupling_values():
    ir, cg = fake_interaction(), fake_gradient(1.0)
    assert cs.kappa(fake_scenario(0.0, 0.75), ir, cg).g_bar \
        == pytest.approx(math.sqrt(2.0))
    g_bar = cs.kappa(fake_scenario(0.3, 0.75), ir, cg).g_bar
    assert g_bar == pytest.approx(math.sqrt(2.0) * 0.8875, rel=1e-12)
    assert g_bar == pytest.approx(1.2551, rel=1e-4)


def test_kappa_detection_efficiency_values():
    cg = fake_gradient()
    assert cs.kappa(fake_scenario(0.3, 0.75),
                    fake_interaction(rad_fraction=0.54), cg).nu \
        == pytest.approx(0.405, rel=1e-12)
    assert cs.kappa(fake_scenario(0.3, 1.0),
                    fake_interaction(rad_fraction=1.0), cg).nu == 1.0
    assert cs.kappa(fake_scenario(0.3, 0.0), fake_interaction(), cg).nu == 0.0


def scenario_with(epsilon=0.3, eta_det=0.75):
    emitter = cs.EmitterParams.from_wavelength(2e-6, 2 * math.pi * 240e6)
    return cs.ScenarioParams(
        emitter=emitter,
        graphene=cs.GrapheneParams.from_fractions(0.8, emitter.omega0),
        mechanics=cs.MechanicalParams(omega_m=2 * math.pi * 1e6,
                                      mass=2.81e-18, quality=5e4, t_bath=1.0),
        drive=cs.DriveParams(epsilon=epsilon, eta_det=eta_det),
        distance=18e-9)


def test_kappa_consistency_identity():
    # 2 gbar sqrt(eps nu / Gamma) == 2 gbar sqrt(eps Gamma_det)/Gamma
    s = scenario_with()
    ir, cg = fake_interaction(), fake_gradient()
    cr = cs.kappa(s, ir, cg)
    gamma_det = cr.nu * ir.gamma
    alt = 2.0 * cr.g_bar * math.sqrt(s.drive.epsilon * gamma_det) / ir.gamma
    assert cr.kappa == pytest.approx(alt, rel=1e-12)
    assert cr.kappa**2 == pytest.approx(
        4 * s.drive.epsilon * cr.g_bar**2 * cr.nu / ir.gamma, rel=1e-12)


def test_kappa_vanishes_without_detection():
    s = scenario_with(eta_det=0.0)
    cr = cs.kappa(s, fake_interaction(), fake_gradient())
    assert cr.nu == 0.0
    assert cr.kappa == 0.0
    assert math.isinf(cr.kappa_inv_si)


def test_kappa_monotone_in_nu_and_epsilon():
    ir, cg = fake_interaction(), fake_gradient()
    kappas_nu = [cs.kappa(scenario_with(eta_det=eta), ir, cg).kappa
                 for eta in np.linspace(0.05, 1.0, 8)]
    assert np.all(np.diff(kappas_nu) > 0)
    kappas_eps = [cs.kappa(scenario_with(epsilon=eps), ir, cg).kappa
                  for eps in np.linspace(0.02, 0.6, 8)]
    assert np.all(np.diff(kappas_eps) > 0)


def test_merit_scales_linearly_in_epsilon():
    ir, cg = fake_interaction(), fake_gradient()
    eps = np.linspace(0.05, 0.6, 6)
    merits = np.array([cs.kappa(scenario_with(epsilon=e), ir, cg).merit
                       for e in eps])
    scaled = merits / (eps * (1 - 3 * eps / 8) ** 2)
    assert np.all(np.abs(scaled / scaled[0] - 1) < 1e-9)


def test_merit_ideal_vs_actual():
    s = scenario_with()
    cr = cs.kappa(s, fake_interaction(), fake_gradient())
    assert cr.merit == pytest.approx(cr.merit_ideal * cr.nu, rel=1e-12)


def test_zero_point_units():
    s = scenario_with()
    cr = cs.kappa(s, fake_interaction(), fake_gradient())
    # kappa_inv_si = x_zpm / kappa with kappa in zero-point units
    assert cr.kappa_inv_si == pytest.approx(s.mechanics.x_zpm / cr.kappa,
                                            rel=1e-12)
