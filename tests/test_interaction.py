import math

import numpy as np
import pytest

import casimir_sense as cs

from gradient_oracle import richardson_gradient

W0 = 2 * math.pi * cs.CONSTANTS.c / 2e-6
GAMMA0 = 2 * math.pi * 240e6
EMITTER = cs.EmitterParams(omega0=W0, gamma0=GAMMA0)


def graphene(mu_frac, sigma_zero=False):
    return cs.GrapheneParams.from_fractions(mu_frac, W0, 1e3,
                                            sigma_zero=sigma_zero)


def test_transparent_sheet_gives_free_space_result():
    g = graphene(0.8, sigma_zero=True)
    assert cs.ground_shift(18e-9, EMITTER, g) == 0.0
    assert cs.excited_shift(18e-9, EMITTER, g) == 0.0
    ir = cs.decay_rates(18e-9, EMITTER, g)
    assert ir.gamma == pytest.approx(GAMMA0, rel=1e-12)
    assert ir.gamma_rad == pytest.approx(GAMMA0, rel=1e-12)
    assert ir.gamma_nonrad == 0.0
    cg = cs.transition_gradient(18e-9, EMITTER, g)
    assert cg.g_value == 0.0


@pytest.mark.parametrize("mu_frac", [0.0, 0.8])
def test_ground_shift_is_attractive(mu_frac):
    assert cs.ground_shift(18e-9, EMITTER, graphene(mu_frac)) < 0


@pytest.mark.parametrize("mu_frac", [0.0, 0.8])
def test_ground_shift_monotone_in_distance(mu_frac):
    g = graphene(mu_frac)
    ds = np.geomspace(5e-9, 100e-9, 7)
    vals = np.array([cs.ground_shift(d, EMITTER, g) for d in ds])
    assert np.all(vals < 0)
    assert np.all(np.diff(np.abs(vals)) < 0)


def test_excited_shift_identity():
    # dw_e + dw_g = -(Gamma0 pi c / w0) Re Tr G by definition
    g = graphene(0.8)
    d = 18e-9
    dg = cs.ground_shift(d, EMITTER, g)
    de = cs.excited_shift(d, EMITTER, g)
    trace = cs.trace_green_real(d, W0, g).value
    rhs = -GAMMA0 * math.pi * cs.CONSTANTS.c / W0 * trace.real
    assert de + dg == pytest.approx(rhs, rel=1e-12)


def test_decay_sum_rule_on_grid():
    for mu_frac in (0.0, 0.3, 0.8):
        for d in (8e-9, 18e-9, 40e-9):
            ir = cs.decay_rates(d, EMITTER, graphene(mu_frac))
            assert ir.gamma == pytest.approx(ir.gamma_rad + ir.gamma_nonrad,
                                             rel=1e-9)
            assert ir.gamma > 0 and ir.gamma_rad > 0 and ir.gamma_nonrad >= 0
            assert ir.delta_omega == pytest.approx(ir.delta_e - ir.delta_g,
                                                   rel=1e-12)


def test_interband_edge_is_finite_and_continuous():
    # at mu = hbar w0 / 2 the T = 0 interband log makes Im sigma(w0) -inf:
    # the sheet impedance 1/s is 0 there, a lossless mirror.  Either side
    # tends to that limit, though only as 1/ln|mu - w0/2|
    def at(mu_frac):
        ir, cg = cs.interaction_and_gradient(18e-9, EMITTER, graphene(mu_frac))
        return np.array([ir.delta_omega, ir.gamma_rad, cg.g_value])

    edge = at(0.5)
    ir = cs.decay_rates(18e-9, EMITTER, graphene(0.5))
    assert np.all(np.isfinite(edge)) and ir.gamma_nonrad == 0.0
    assert ir.gamma == ir.gamma_rad
    assert [ir.delta_omega, ir.gamma_rad] == pytest.approx(edge[:2],
                                                           rel=1e-12)
    below = np.array([at(0.5 - dm) for dm in (1e-3, 1e-6, 1e-9, 1e-12)])
    above = np.array([at(0.5 + dm) for dm in (1e-3, 1e-6, 1e-9, 1e-12)])
    assert np.all(np.diff(abs(below - edge), axis=0) < 0)
    assert np.all(np.diff(abs(above - edge), axis=0) < 0)
    assert np.all(np.diff(abs(above - below), axis=0) < 0)
    # the two sides of mu = 0.5 +- 1e-9 agree in the shift and its slope
    assert above[2, [0, 2]] == pytest.approx(below[2, [0, 2]], rel=0.02)


@pytest.mark.parametrize("mu_frac", [0.8, 1.0])
def test_clean_graphene_rates_converge_in_the_loss(mu_frac):
    # the plasmon Lorentzian narrows to a relative width of w0/gamma_g
    nonrad = []
    for q_factor in (1e5, 1e6, 1e7):
        g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
        ir = cs.decay_rates(18e-9, EMITTER, g)
        assert ir.gamma == pytest.approx(ir.gamma_rad + ir.gamma_nonrad,
                                         rel=1e-12)
        nonrad.append(ir.gamma_nonrad)
    steps = np.abs(np.diff(nonrad))
    assert steps[1] <= steps[0] / 5.0


def test_quenching_dominates_in_absorptive_regime():
    ir = cs.decay_rates(10e-9, EMITTER, graphene(0.3))
    assert ir.gamma_nonrad > ir.gamma_rad


def test_gradient_error_estimate_is_small():
    cg = cs.transition_gradient(18e-9, EMITTER, graphene(0.8))
    assert cg.error_estimate < 0.01 * abs(cg.g_value)


def test_gradient_sign_and_consistency():
    # delta_omega shrinks with distance at the operating point
    g = graphene(0.8)
    cg = cs.transition_gradient(18e-9, EMITTER, g)
    assert cg.g_value < 0
    d1 = cs.decay_rates(17.9e-9, EMITTER, g).delta_omega
    d2 = cs.decay_rates(18.1e-9, EMITTER, g).delta_omega
    assert cg.g_value == pytest.approx((d2 - d1) / 0.2e-9, rel=1e-3)


@pytest.mark.parametrize("d", [8e-9, 18e-9, 40e-9])
@pytest.mark.parametrize("mu_frac", [0.0, 0.3, 0.6, 0.8])
def test_gradient_matches_richardson_oracle(mu_frac, d):
    g = graphene(mu_frac)
    cg = cs.transition_gradient(d, EMITTER, g)
    value, _, _ = richardson_gradient(d, EMITTER, g)
    assert cg.g_value == pytest.approx(value, rel=1e-2)


@pytest.mark.parametrize("mu_frac, d", [(0.8, 18e-9), (0.3, 10e-9),
                                        (0.6, 40e-9)])
def test_gradient_matches_central_difference_of_transition_shift(mu_frac, d):
    # step 1e-3 d: truncation ~1e-6 relative, quadrature noise ~1e-5
    g = graphene(mu_frac)
    h = 1e-3 * d
    slope = (cs.transition_shift(d + h, EMITTER, g)
             - cs.transition_shift(d - h, EMITTER, g)) / (2.0 * h)
    assert cs.transition_gradient(d, EMITTER, g).g_value \
        == pytest.approx(slope, rel=5e-5)


@pytest.mark.parametrize("mu_frac, d", [(0.8, 18e-9), (0.6, 8e-9)])
def test_one_pass_shifts_match_decay_rates(mu_frac, d):
    g = graphene(mu_frac)
    ir, cg = cs.interaction_and_gradient(d, EMITTER, g)
    ref = cs.decay_rates(d, EMITTER, g)
    for field in ("delta_g", "delta_e", "delta_omega", "gamma", "gamma_rad",
                  "gamma_nonrad"):
        assert getattr(ir, field) == pytest.approx(getattr(ref, field),
                                                   rel=1e-9)
    assert cg == cs.transition_gradient(d, EMITTER, g)


def test_gradient_rejects_bad_distance():
    with pytest.raises(ValueError):
        cs.transition_gradient(0.0, EMITTER, graphene(0.8))


def make_scenario(mu_frac, d, sigma_zero=False):
    return cs.ScenarioParams(
        emitter=EMITTER, graphene=graphene(mu_frac, sigma_zero=sigma_zero),
        mechanics=cs.MechanicalParams(omega_m=2 * math.pi * 1e6,
                                      mass=2.81e-18, quality=5e4, t_bath=1.0),
        drive=cs.DriveParams(epsilon=0.3, eta_det=0.75),
        distance=d)


def test_scattering_map_free_space_normalization():
    s = make_scenario(0.8, 18e-9, sigma_zero=True)
    assert cs.scattering_rate_map(18e-9, W0, s) == pytest.approx(1.0, rel=1e-12)
    s_far = make_scenario(0.8, 10e-6)
    assert cs.scattering_rate_map(10e-6, W0, s_far) == pytest.approx(1.0,
                                                                     rel=2e-2)


def test_scattering_map_line_center_identity():
    s = make_scenario(0.8, 18e-9)
    ir = cs.decay_rates(18e-9, EMITTER, s.graphene)
    val = cs.scattering_rate_map(18e-9, W0 + ir.delta_omega, s)
    assert val == pytest.approx(ir.gamma_rad * GAMMA0 / ir.gamma**2, rel=1e-9)


def test_scattering_map_contrast_drops_at_short_distance():
    # mu = 0, laser fixed on the bare resonance: approaching the sheet kills
    # the detected rate (shift moves the line, quenching eats the photons)
    s = make_scenario(0.0, 18e-9)
    ds = np.array([5e-9, 10e-9, 20e-9, 40e-9])
    vals = [cs.scattering_rate_map(d, W0, s) for d in ds]
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] < 1.0
