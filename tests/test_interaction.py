import math
import re
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import casimir_sense as cs
from casimir_sense import greens, interaction, quadrature

from gradient_oracle import richardson_gradient
from mu0_oracle import (DPS, ground_shift_constant_s, mirror_trace,
                        perfect_mirror_moment)
from rows_oracle import integrate_rows_level_by_level

W0 = 2 * math.pi * cs.CONSTANTS.c / 2e-6
GAMMA0 = 2 * math.pi * 240e6
EMITTER = cs.EmitterParams(omega0=W0, gamma0=GAMMA0)


def graphene(mu_frac):
    return cs.GrapheneParams.from_fractions(mu_frac, W0, 1e3)


@pytest.mark.parametrize("mu_frac", [0.0, 0.8])
def test_ground_shift_is_attractive(mu_frac):
    (value, _), _ = cs.ground_shift(18e-9, EMITTER, graphene(mu_frac))
    assert value < 0


@pytest.mark.parametrize("mu_frac", [0.0, 0.8])
def test_ground_shift_monotone_in_distance(mu_frac):
    g = graphene(mu_frac)
    ds = np.geomspace(5e-9, 100e-9, 7)
    vals = np.array([cs.ground_shift(d, EMITTER, g)[0][0] for d in ds])
    assert np.all(vals < 0)
    assert np.all(np.diff(np.abs(vals)) < 0)


def test_excited_shift_identity():
    # dw_e + dw_g = -(Gamma0 pi c / w0) Re Tr G by definition
    g = graphene(0.8)
    d = 18e-9
    (dg, _), _ = cs.ground_shift(d, EMITTER, g)
    de = interaction.excited_shift(d, EMITTER, g)
    trace = sum(cs.trace_green_real_parts(d, W0, g))[0]
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
    cg = interaction.transition_gradient(18e-9, EMITTER, graphene(0.8))
    assert cg.error_estimate < 0.01 * abs(cg.g_value)


def test_gradient_sign_and_consistency():
    # delta_omega shrinks with distance at the operating point
    g = graphene(0.8)
    cg = interaction.transition_gradient(18e-9, EMITTER, g)
    assert cg.g_value < 0
    d1 = cs.decay_rates(17.9e-9, EMITTER, g).delta_omega
    d2 = cs.decay_rates(18.1e-9, EMITTER, g).delta_omega
    assert cg.g_value == pytest.approx((d2 - d1) / 0.2e-9, rel=1e-3)


@pytest.mark.parametrize("d", [8e-9, 18e-9, 40e-9])
@pytest.mark.parametrize("mu_frac", [0.0, 0.3, 0.6, 0.8])
def test_gradient_matches_richardson_oracle(mu_frac, d):
    g = graphene(mu_frac)
    cg = interaction.transition_gradient(d, EMITTER, g)
    value, _, _ = richardson_gradient(d, EMITTER, g)
    assert cg.g_value == pytest.approx(value, rel=1e-2)


@pytest.mark.parametrize("mu_frac, d", [(0.8, 18e-9), (0.3, 10e-9),
                                        (0.6, 40e-9)])
def test_gradient_matches_central_difference_of_transition_shift(mu_frac, d):
    # step 1e-3 d: truncation ~1e-6 relative, quadrature noise ~1e-5
    g = graphene(mu_frac)
    h = 1e-3 * d
    slope = (interaction.transition_shift(d + h, EMITTER, g)
             - interaction.transition_shift(d - h, EMITTER, g)) / (2.0 * h)
    assert interaction.transition_gradient(d, EMITTER, g).g_value \
        == pytest.approx(slope, rel=5e-5)


@pytest.mark.parametrize("mu_frac, d", [(0.8, 18e-9), (0.6, 8e-9)])
def test_one_pass_shifts_match_decay_rates(mu_frac, d):
    g = graphene(mu_frac)
    ir, cg = cs.interaction_and_gradient(d, EMITTER, g)
    ref = cs.decay_rates(d, EMITTER, g)
    assert ir == ref
    assert cg == interaction.transition_gradient(d, EMITTER, g)


@pytest.mark.parametrize("d", [18e-9, 10e-6])
@pytest.mark.parametrize("q_factor", [1e3, 1e7])
@pytest.mark.parametrize("mu_frac", [0.0, 0.8])
def test_both_paths_return_the_same_record(mu_frac, q_factor, d):
    # plain floats, and one pass: decay_rates is the first record of
    # interaction_and_gradient bit for bit, out to 10 um and w0/gamma_g 1e7
    g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
    ir, cg = cs.interaction_and_gradient(d, EMITTER, g)
    ref = cs.decay_rates(d, EMITTER, g)
    cr = cs.kappa(make_scenario(mu_frac, d), ir, cg)
    for record in (ir, cg, ref, cr):
        for field in fields(record):
            assert type(getattr(record, field.name)) is float, field.name
    assert ir == ref


def test_gradient_rejects_bad_distance():
    with pytest.raises(ValueError):
        interaction.transition_gradient(0.0, EMITTER, graphene(0.8))


def make_scenario(mu_frac, d):
    return cs.ScenarioParams(
        emitter=EMITTER, graphene=graphene(mu_frac),
        mechanics=cs.MechanicalParams(omega_m=2 * math.pi * 1e6,
                                      mass=2.81e-18, quality=5e4, t_bath=1.0),
        drive=cs.DriveParams(epsilon=0.3, eta_det=0.75),
        distance=d)


# (name in the message, call with the argument under test)
_FREE_ARGUMENTS = [
    ("d", lambda x: cs.ground_shift(x, EMITTER, graphene(0.8))),
    ("d", lambda x: cs.scattering_rate_map(x, np.array([W0, 1.01 * W0]),
                                           make_scenario(0.8, 18e-9))),
    ("d", lambda x: cs.ground_shift(x, EMITTER, graphene(0.0))),
    ("d", lambda x: cs.decay_rates(x, EMITTER, graphene(0.8))),
    ("d", lambda x: cs.interaction_and_gradient(x, EMITTER, graphene(0.8))),
    ("d", lambda x: cs.scattering_rate_map(x, W0, make_scenario(0.8, 18e-9))),
    ("omega_l", lambda x: cs.scattering_rate_map(18e-9, np.array([W0, x]),
                                                 make_scenario(0.8, 18e-9))),
    ("z", lambda x: cs.trace_green_real_parts(x, W0, graphene(0.8))),
    ("omega", lambda x: cs.trace_green_real_parts(18e-9, x, graphene(0.8))),
    ("omega", lambda x: cs.sigma_real_axis(x, graphene(0.8))),
    ("omega", lambda x: cs.sigma_real_axis(np.array([W0, x]), graphene(0.8))),
    ("u", lambda x: cs.sigma_imag_axis(x, graphene(0.8))),
    ("u", lambda x: cs.sigma_imag_axis(np.array([W0, x]), graphene(0.8))),
]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name, call", _FREE_ARGUMENTS,
                         ids=[f"{n}-{i}" for i, (n, _) in
                              enumerate(_FREE_ARGUMENTS)])
def test_non_finite_argument_fails_by_name(name, call, value):
    # a ValueError that names the argument, not a QuadratureError from the
    # integrand, an edge-list error or a silent nan
    with pytest.raises(ValueError, match=rf"^{name} must be positive and "
                                         "finite$"):
        call(value)


_AT_THE_OPERATING_POINT = (r" of the ground shift at d = 1\.8e-08 m, mu = "
                           r"0\.8 hbar\*omega0, omega0/gamma_g = 1000 "
                           r"\(residual estimate ")


@pytest.mark.parametrize("call", [cs.decay_rates, cs.interaction_and_gradient])
def test_quadrature_failure_names_the_integral_and_the_point(monkeypatch,
                                                             call):
    monkeypatch.setattr(quadrature, "_MAX_DOUBLINGS", 1)
    with pytest.raises(cs.QuadratureError) as failure:
        call(18e-9, EMITTER, graphene(0.8))
    exc = failure.value
    assert type(exc) is cs.QuadratureError
    assert exc.residual == exc.__cause__.residual
    assert re.fullmatch(r"quadrature did not converge in the (outer frequency "
                        r"integral|inner imaginary-axis rows)"
                        + _AT_THE_OPERATING_POINT + r"\S+\)", str(exc))


@pytest.mark.parametrize("name, part", [
    ("_trace_imag_scaled", "inner imaginary-axis rows"),
    ("integrate_refined", "outer frequency integral")])
def test_quadrature_failure_names_the_integral_it_comes_from(monkeypatch,
                                                             name, part):
    def failing(*args, **kwargs):
        raise cs.QuadratureError("injected failure", 2.0)

    monkeypatch.setattr(interaction, name, failing)
    with pytest.raises(cs.QuadratureError, match=(
            f"^injected failure in the {part}" + _AT_THE_OPERATING_POINT
            + r"2\.000e\+00\)$")) as failure:
        cs.ground_shift(18e-9, EMITTER, graphene(0.8))
    assert failure.value.residual == 2.0


def test_scattering_map_free_space_normalization():
    s = make_scenario(0.8, 10e-6)
    assert cs.scattering_rate_map(10e-6, W0, s) == pytest.approx(1.0, rel=2e-2)


def test_scattering_map_line_center_identity():
    s = make_scenario(0.8, 18e-9)
    ir = cs.decay_rates(18e-9, EMITTER, s.graphene)
    val = cs.scattering_rate_map(18e-9, W0 + ir.delta_omega, s)
    assert val == pytest.approx(ir.gamma_rad * GAMMA0 / ir.gamma**2, rel=1e-9)


@pytest.mark.parametrize("d", [8e-9, 60e-9])
@pytest.mark.parametrize("mu_frac", [0.0, 0.8])
def test_scattering_map_row_matches_its_cells(mu_frac, d):
    # one pass serves a map row, and each cell of it is the bits of its own
    # scalar call, which gives a float; a zero in a row fails by name
    s = make_scenario(mu_frac, d)
    omega_l = W0 + np.linspace(-4000, 1000, 6) * GAMMA0
    row = cs.scattering_rate_map(d, omega_l, s)
    cells = [cs.scattering_rate_map(d, w, s) for w in omega_l]
    assert all(type(f) is float for f in cells)
    assert row.shape == omega_l.shape
    assert np.array_equal(row, cells)
    with pytest.raises(ValueError,
                       match=r"^omega_l must be positive and finite$"):
        cs.scattering_rate_map(d, np.array([W0, 0.0]), s)


def test_scattering_map_contrast_drops_at_short_distance():
    # mu = 0, laser fixed on the bare resonance: approaching the sheet kills
    # the detected rate (shift moves the line, quenching eats the photons)
    s = make_scenario(0.0, 18e-9)
    ds = np.array([5e-9, 10e-9, 20e-9, 40e-9])
    vals = [cs.scattering_rate_map(d, W0, s) for d in ds]
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] < 1.0


#: mu/hbar w0 from undoped to heavily doped: the sheet's knees (2 mu,
#: gamma_g and where r_p saturates, pi alpha c/(2d)) pass through every
#: outer panel as d runs from 1 nm to 100 um
KNEE_MU = [0.0, 1e-4, 1e-3, 5e-3, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.6, 0.8,
           1.0]


def _count_outer_nodes(monkeypatch):
    nodes = [0]
    refine = interaction.integrate_refined

    def counting(f, edges, **kwargs):
        def counted(x):
            nodes[0] += np.size(x)
            return f(x)
        return refine(counted, edges, **kwargs)

    monkeypatch.setattr(interaction, "integrate_refined", counting)
    return nodes


def test_ground_shift_outer_node_count_is_bounded(monkeypatch):
    # the edges name no scale of the sheet, so a knee of sigma or r_p may
    # fall anywhere inside a panel; refining each panel on its own keeps
    # the cost of a knee to its panel (90,960 nodes with the slope, at most
    # 696 at one point; whole-level refinement of the same edges took
    # 113,616 for the value alone)
    nodes = _count_outer_nodes(monkeypatch)
    total = 0
    for mu_frac in KNEE_MU:
        for q_factor in (1e3, 1e7):
            g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
            for d in np.geomspace(1e-9, 1e-4, 11):
                nodes[0] = 0
                cs.ground_shift(d, EMITTER, g)
                assert nodes[0] <= 2_000, (mu_frac, q_factor, d, nodes[0])
                total += nodes[0]
    assert total <= 101_448


@pytest.mark.parametrize("mu_frac, d, nodes", [
    (0.8, 18e-9, 288), (0.5, 18e-9, 288), (1e-4, 10e-9, 288),
    (0.0, 3e-9, 288), (0.0, 4e-9, 288), (1e-3, 2e-9, 288)])
def test_ground_shift_outer_node_count_at_pinned_points(monkeypatch, mu_frac,
                                                        d, nodes):
    # the operating point and the interband edge mu = hbar w0/2 at 18 nm,
    # a lightly doped sheet whose Drude knee gamma_g lies above 2 mu, and
    # undoped and lightly doped sheets on either side of
    # d* = alpha lambda0/4 = 3.65 nm, where the r_p knee pi alpha c/(2d)
    # crosses w0: four panels, one bisection each
    count = _count_outer_nodes(monkeypatch)
    cs.ground_shift(d, EMITTER, graphene(mu_frac))
    assert count[0] == nodes


# (mu/hbar w0, w0/gamma_g, d) of the tolerance checks
_TOLERANCE_POINTS = [
    # undoped and lightly doped sheets in the near field, where the r_p
    # knee pi alpha c/(2d) bends the integrand: earlier layouts erred most
    (1e-4, 1e7, 8e-9), (1e-4, 1e7, 3e-9), (1e-3, 1e7, 20e-9),
    (0.0, 1e3, 8e-9), (0.02, 1e3, 1e-9),
    (1e-3, 1e3, 20e-6),     # far out, where r_p dips at the Drude knee
    (0.8, 1e3, 18e-9),      # operating point
    (1e-3, 1e3, 1e-9),      # r_p knee above w0 (d < alpha lambda0/4)
    (0.0, 1e3, 4e-9)]       # r_p knee just below w0


@pytest.mark.parametrize("mu_frac, q_factor, d", _TOLERANCE_POINTS)
def test_ground_shift_meets_a_tighter_outer_tolerance(monkeypatch, mu_frac,
                                                      q_factor, d):
    g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
    (value, _), _ = cs.ground_shift(d, EMITTER, g)
    monkeypatch.setattr(interaction, "RTOL", 1e-11)
    (tight, _), _ = cs.ground_shift(d, EMITTER, g)
    assert value == pytest.approx(tight, rel=1e-8)


@pytest.mark.parametrize("mu_frac, q_factor, d", _TOLERANCE_POINTS)
def test_imag_kernel_meets_a_tighter_inner_tolerance(monkeypatch, mu_frac,
                                                     q_factor, d):
    # the inner rows stop at the outer tolerance; rows of one sign under
    # positive weights cannot cancel, so a tighter inner tolerance moves
    # [value, slope] by far less than it (quadrature module docstring)
    g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
    value, _ = cs.ground_shift(d, EMITTER, g)
    monkeypatch.setattr(greens, "RTOL", 1e-12)
    tight, _ = cs.ground_shift(d, EMITTER, g)
    np.testing.assert_allclose(value, tight, rtol=2e-12, atol=0.0)


#: the 16 distances of scripts/node_census.py
_CENSUS_DISTANCES = np.geomspace(1e-9, 1e-4, 16)


@pytest.mark.parametrize("d", _CENSUS_DISTANCES)
def test_ground_shift_matches_the_mu0_closed_form(d):
    # an undoped sheet has s = pi alpha at every frequency, so the oracle
    # takes the frequency integral first, in closed form, and checks the
    # outer sum over frequency panels as a whole
    value, _ = cs.ground_shift(d, EMITTER, graphene(0.0))
    pi_alpha = math.pi * cs.CONSTANTS.alpha
    np.testing.assert_allclose(value,
                               ground_shift_constant_s(d, EMITTER, pi_alpha),
                               rtol=1e-9, atol=0.0)


def test_mu0_ground_shift_steepens_to_the_retarded_law():
    # the local slope of |dw_g| on an undoped sheet steepens from -3.21 over
    # 1-2 nm to the retarded d^-4 law far out: no power law holds over the
    # 5-20 nm window of acceptance criterion 4
    g = graphene(0.0)
    slopes = [math.log(cs.ground_shift(b, EMITTER, g)[0][0]
                       / cs.ground_shift(a, EMITTER, g)[0][0])
              / math.log(b / a)
              for a, b in ((1e-9, 2e-9), (5e-9, 20e-9), (0.3e-6, 1e-6),
                           (30e-6, 100e-6))]
    assert np.all(np.diff(slopes) < 0)
    assert abs(slopes[-1] + 4.0) <= 1e-3


def _constant_sheet(monkeypatch, s):
    """Make every sigma(iu)/(eps0 c) that ground_shift reads equal s."""
    monkeypatch.setattr(interaction, "_sigma_ec",
                        lambda axis, u, g: np.full(np.shape(u), s))


@pytest.mark.parametrize("s", [10 * math.pi * cs.CONSTANTS.alpha, 1e15])
@pytest.mark.parametrize("d", _CENSUS_DISTANCES[:13])      # 1 nm to 10 um
def test_ground_shift_matches_the_constant_s_closed_form(monkeypatch, s, d):
    # a sheet ten times as conductive as an undoped one, and a near-perfect
    # mirror: the swapped-integral oracle holds for any s constant in u
    _constant_sheet(monkeypatch, s)
    value, _ = cs.ground_shift(d, EMITTER, graphene(0.8))
    np.testing.assert_allclose(value, ground_shift_constant_s(d, EMITTER, s),
                               rtol=1e-9, atol=0.0)


def test_near_perfect_mirror_gives_the_mirror_law(monkeypatch):
    # -Gamma0/16 (k0 d)^-3 (Wylie & Sipe, PRA 30, 1185 (1984)), with a
    # correction of order k0 d; it fixes the prefactor c Gamma0/w0^2
    _constant_sheet(monkeypatch, 1e15)
    d = 1e-9
    k0d = W0 * d / cs.CONSTANTS.c
    (value, _), _ = cs.ground_shift(d, EMITTER, graphene(0.8))
    ratio = value / (-GAMMA0 / 16.0 * k0d ** -3)
    assert abs(ratio - 1.0) <= k0d


@pytest.mark.parametrize("zb", np.geomspace(1e-4, 10.0, 6))
def test_near_perfect_mirror_trace_matches_its_closed_form(zb):
    value, slope = greens._trace_imag_scaled(zb, 1e15)
    want = mirror_trace(zb)
    assert abs(value / want[0] - 1.0) <= 1e-12
    assert abs(slope / want[1] - 1.0) <= 1e-12


@pytest.mark.parametrize("mu_frac, q_factor, d", [
    (0.0, 1e3, _CENSUS_DISTANCES[0]), (1e-4, 1e7, _CENSUS_DISTANCES[3]),
    (0.02, 1e3, _CENSUS_DISTANCES[6]), (0.3, 1e7, _CENSUS_DISTANCES[9]),
    (0.8, 1e3, _CENSUS_DISTANCES[12]), (1.0, 1e7, _CENSUS_DISTANCES[15])])
def test_ground_shift_matches_the_level_by_level_oracle(monkeypatch, mu_frac,
                                                        q_factor, d):
    # both levels of the nested integral, with level 0 and its bisection
    # in one integrand pass, give the bits of one pass per level
    g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
    got = cs.ground_shift(d, EMITTER, g)
    monkeypatch.setattr(quadrature, "integrate_rows",
                        integrate_rows_level_by_level)
    monkeypatch.setattr(greens, "integrate_rows",
                        integrate_rows_level_by_level)
    want = cs.ground_shift(d, EMITTER, g)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_ground_shift_calls_the_kernel_once_at_the_operating_point(
        monkeypatch, ref_scenario):
    # the 96 level-0 and 192 level-1 outer nodes go to the kernel together
    sizes = []
    kernel = interaction._trace_imag_scaled

    def counted(zb, s):
        sizes.append(np.size(zb))
        return kernel(zb, s)

    monkeypatch.setattr(interaction, "_trace_imag_scaled", counted)
    s = ref_scenario
    cs.ground_shift(s.distance, s.emitter, s.graphene)
    assert sizes == [288]


def test_perfect_mirror_moment_is_pi():
    # the moment behind the -Gamma0/16 (k0 d)^-3 near field of a mirror
    with mpmath.workdps(DPS):
        assert abs(perfect_mirror_moment() - mpmath.pi) < 1e-20


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mu_frac=st.one_of(st.sampled_from([0.0, 0.5]), _log_uniform(1e-6, 1.2)),
       q_factor=_log_uniform(1e2, 1e7), d=_log_uniform(1e-9, 1e-4))
def test_casimir_corner_of_the_parameter_box(mu_frac, q_factor, d):
    # no failure is forgiven: every point of this box converges
    g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
    ir = cs.decay_rates(d, EMITTER, g)
    one_pass, cg = cs.interaction_and_gradient(d, EMITTER, g)
    for result in (ir, one_pass):
        values = [result.delta_g, result.delta_e, result.delta_omega,
                  result.gamma, result.gamma_rad, result.gamma_nonrad]
        assert np.all(np.isfinite(values))
        assert result.gamma == pytest.approx(
            result.gamma_rad + result.gamma_nonrad, rel=1e-12)
        assert result.gamma_nonrad >= 0.0
    assert math.isfinite(cg.g_value) and math.isfinite(cg.error_estimate)


@pytest.mark.parametrize("call", [cs.decay_rates, cs.interaction_and_gradient])
@pytest.mark.parametrize("mu_frac, d", [(5e-6, 50e-6), (2e-6, 100e-6)])
def test_lossy_corner_fails_by_name(call, mu_frac, d):
    # a very lossy sheet (omega0/gamma_g = 1, mu of a few 1e-6 hbar*omega0)
    # at tens of um, below the q_factor range of the box test above: the
    # outer integral does not converge there yet.  This pins that the
    # failure is typed and names the point; once a locally adaptive outer
    # rule makes the corner converge, it becomes a check of finite values.
    g = cs.GrapheneParams.from_fractions(mu_frac, W0, 1.0)
    with pytest.raises(cs.QuadratureError, match=(
            r"^quadrature did not converge in the outer frequency integral "
            rf"of the ground shift at d = {d:.6g} m, mu = {mu_frac:.6g} "
            r"hbar\*omega0, omega0/gamma_g = 1 \(residual estimate ")):
        call(d, EMITTER, g)


#: Fermi energies (units of hbar w0), w0/gamma_g, distances and scale
#: factors of the scaling-law test
_SCALING_MUS = [0.0, 1e-3, 0.05, 0.3, 0.8, 1.2]
_SCALING_QS = [1e3, 1e7]
_SCALING_DISTANCES = [1e-9, 18e-9, 1e-6, 1e-4]
_SCALING_FACTORS = [0.5, 3.0, 17.0]


@pytest.mark.parametrize("mu_frac", _SCALING_MUS)
def test_casimir_layer_obeys_its_scaling_law(mu_frac):
    # with Gamma0 fixed, (d, w0, mu, gamma_g) -> (l d, w0/l, mu/l, gamma_g/l)
    # leaves k0 d, mu/w0 and gamma_g/w0 and so every shift and rate as they
    # are, and divides g by l: u = w0 t, zb = (w0 d/c) t, sigma(iu) reads
    # u/mu and u/gamma_g, and the outer edges read c/d and w0.  Only
    # rounding moves them (on this grid at most 1.3e-12, delta_e at 100 um,
    # where the resonant term oscillates with k0 d ~ 314); a unit slip or
    # an absolute scale in a kernel or an edge breaks the law
    for q in _SCALING_QS:
        g = cs.GrapheneParams.from_fractions(mu_frac, W0, q)
        for d in _SCALING_DISTANCES:
            ir, cg = cs.interaction_and_gradient(d, EMITTER, g)
            for lam in _SCALING_FACTORS:
                e = cs.EmitterParams(omega0=W0 / lam, gamma0=GAMMA0)
                g_lam = cs.GrapheneParams(mu=g.mu / lam,
                                          gamma_g=g.gamma_g / lam)
                ir_lam, cg_lam = cs.interaction_and_gradient(lam * d, e,
                                                             g_lam)
                np.testing.assert_allclose(
                    [ir_lam.delta_g, ir_lam.delta_e, ir_lam.gamma_rad,
                     ir_lam.gamma_nonrad, lam * cg_lam.g_value],
                    [ir.delta_g, ir.delta_e, ir.gamma_rad, ir.gamma_nonrad,
                     cg.g_value], rtol=1e-11, atol=0.0,
                    err_msg=f"w0/gamma_g = {q:g}, d = {d:g} m, l = {lam:g}")
