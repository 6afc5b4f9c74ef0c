import math

import numpy as np
import pytest

import casimir_sense as cs
from casimir_sense import greens
from casimir_sense.graphene import FrequencyAxis, _sigma_ec
from casimir_sense.greens import _trace_imag_scaled

from conftest import brute_trace_imag, brute_trace_real, quad_trace_real

W0 = 2 * math.pi * cs.CONSTANTS.c / 2e-6


def graphene(mu_frac, sigma_zero=False):
    return cs.GrapheneParams.from_fractions(mu_frac, W0, 1e3,
                                            sigma_zero=sigma_zero)


def test_transparent_sheet_gives_zero_trace():
    g = graphene(0.8, sigma_zero=True)
    assert cs.trace_green_imag(18e-9, W0, g).value == 0.0
    assert cs.trace_green_real(18e-9, W0, g).value == 0.0


def test_imag_axis_trace_is_negative_and_decays_with_distance():
    g = graphene(0.8)
    vals = [cs.trace_green_imag(z, W0, g).value
            for z in np.linspace(8e-9, 80e-9, 8)]
    assert all(v < 0 for v in vals)
    mags = np.abs(vals)
    assert np.all(np.diff(mags) < 0)


def test_imag_axis_trace_against_brute_force_oracle():
    g = graphene(0.8)
    adaptive = cs.trace_green_imag(18e-9, W0, g).value
    oracle = brute_trace_imag(18e-9, W0, g)
    assert abs(oracle.imag) <= 1e-9 * abs(oracle.real)
    assert adaptive == pytest.approx(oracle.real, rel=1e-6)


def test_real_axis_trace_against_brute_force_oracle():
    g = graphene(0.8)
    prop, evan = cs.trace_green_real_parts(18e-9, W0, g)
    o_prop, o_evan = brute_trace_real(18e-9, W0, g)
    assert prop.real == pytest.approx(o_prop.real, rel=1e-6)
    assert prop.imag == pytest.approx(o_prop.imag, rel=1e-6)
    assert evan.real == pytest.approx(o_evan.real, rel=1e-6)
    assert evan.imag == pytest.approx(o_evan.imag, rel=1e-6)


@pytest.mark.parametrize("mu_frac, q_factor", [
    (0.55, 1e3), (0.6, 1e3), (0.6, 1e7), (0.8, 1e7), (1.0, 1e7)])
def test_real_axis_trace_against_quad_oracle_near_poles(mu_frac, q_factor):
    # a Fresnel pole close to the path: |s| ~ 2e-5 where the Drude and
    # interband parts of Im s cancel (mu ~ 0.6), a plasmon of relative width
    # 1e-7 (clean graphene), an r_s pole 4e-3 of its distance off the path
    g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
    parts = cs.trace_green_real_parts(18e-9, W0, g)
    for part, ref in zip(parts, quad_trace_real(18e-9, W0, g)):
        assert part.real == pytest.approx(ref.real, rel=1e-9)
        assert part.imag == pytest.approx(ref.imag, rel=1e-9)


@pytest.mark.parametrize("mu_frac", [0.0, 0.3, 0.5 + 1e-7, 0.55, 0.6, 0.8,
                                     1.0])
def test_real_axis_node_count_is_bounded(monkeypatch, mu_frac):
    # the panel edges are graded toward the Fresnel poles, so neither a pole
    # next to the path nor a narrow plasmon needs deep bisection
    nodes = [0]
    refine = greens.integrate_refined

    def counting(f, edges, **kwargs):
        def counted(x):
            nodes[0] += np.size(x)
            return f(x)
        return refine(counted, edges, **kwargs)

    monkeypatch.setattr(greens, "integrate_refined", counting)
    for q_factor in (1e3, 1e7):
        g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
        for z in (8e-9, 18e-9, 40e-9):
            nodes[0] = 0
            cs.trace_green_real_parts(z, W0, g, gradient=True)
            assert 0 < nodes[0] <= 20_000, (q_factor, z, nodes[0])


@pytest.mark.parametrize("mu_frac", [0.0, 0.3, 0.5, 0.6, 0.8, 1.0])
def test_imag_kernel_node_count_is_bounded(monkeypatch, mu_frac):
    # the inner integrals of one interaction_and_gradient call take about
    # 190,000 nodes over mu in [0, 1]; one more bisection of every row
    # would double that
    nodes = [0]
    rows = greens.integrate_rows

    def counting(f, edges, *columns, **kwargs):
        def counted(x, *cols):
            nodes[0] += np.size(x)
            return f(x, *cols)
        return rows(counted, edges, *columns, **kwargs)

    monkeypatch.setattr(greens, "integrate_rows", counting)
    e = cs.EmitterParams(omega0=W0, gamma0=2 * math.pi * 240e6)
    for q_factor in (1e3, 1e7):
        nodes[0] = 0
        cs.interaction_and_gradient(
            18e-9, e, cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor))
        assert 0 < nodes[0] <= 200_000, (q_factor, nodes[0])


def test_oracle_equivalence_at_random_points():
    rng = np.random.default_rng(20240814)
    for _ in range(5):
        z = 10.0 ** rng.uniform(math.log10(8e-9), math.log10(60e-9))
        mu_frac = rng.uniform(0.0, 1.1)
        freq = rng.uniform(0.3, 2.0) * W0
        g = graphene(mu_frac)
        a_imag = cs.trace_green_imag(z, freq, g).value
        o_imag = brute_trace_imag(z, freq, g).real
        assert a_imag == pytest.approx(o_imag, rel=1e-5), (z, mu_frac, freq)
        prop, evan = cs.trace_green_real_parts(z, freq, g)
        o_prop, o_evan = brute_trace_real(z, freq, g)
        total, o_total = prop + evan, o_prop + o_evan
        assert total.real == pytest.approx(o_total.real, rel=1e-5)
        assert total.imag == pytest.approx(o_total.imag, rel=1e-5)


def test_absorption_grows_at_short_distance():
    # undoped graphene: evanescent absorption channel dominates Im Tr G and
    # grows monotonically as the emitter approaches the sheet
    g = graphene(0.0)
    zs = np.linspace(5e-9, 40e-9, 6)
    ims = [cs.trace_green_real(z, W0, g).value.imag for z in zs]
    assert all(v > 0 for v in ims)
    assert np.all(np.diff(ims) < 0)


def test_trace_rejects_bad_arguments():
    g = graphene(0.5)
    with pytest.raises(ValueError):
        cs.trace_green_imag(0.0, W0, g)
    with pytest.raises(ValueError):
        cs.trace_green_imag(1e-8, 0.0, g)
    with pytest.raises(ValueError):
        cs.trace_green_real(-1e-9, W0, g)


@pytest.mark.parametrize("zb", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("s", [0.01, 1.0])
def test_imag_kernel_gradient_matches_central_difference(zb, s):
    value, slope = _trace_imag_scaled(zb, s, gradient=True)
    h = 1e-4 * zb
    diff = (_trace_imag_scaled(zb + h, s) - _trace_imag_scaled(zb - h, s)) \
        / (2.0 * h)
    assert value == pytest.approx(_trace_imag_scaled(zb, s), rel=1e-12)
    assert slope == pytest.approx(diff, rel=1e-6)


@pytest.mark.parametrize("z", [8e-9, 40e-9, 2e-6])
@pytest.mark.parametrize("mu_frac", [0.0, 0.8])
def test_real_axis_gradient_matches_central_difference(mu_frac, z):
    # each sector on its own: near the sheet the propagating slope is 1e-8
    # of the evanescent one, so only the far point resolves it in the sum
    g = graphene(mu_frac)
    h = 1e-4 * z
    parts = cs.trace_green_real_parts(z, W0, g, gradient=True)
    at = cs.trace_green_real_parts(z, W0, g)
    up = cs.trace_green_real_parts(z + h, W0, g)
    down = cs.trace_green_real_parts(z - h, W0, g)
    for (value, slope), ref, hi, lo in zip(parts, at, up, down):
        assert value == pytest.approx(ref, rel=1e-12)
        assert slope == pytest.approx((hi - lo) / (2.0 * h), rel=1e-6)


@pytest.mark.parametrize("q_factor", [1e3, 1e5])
def test_imag_kernel_rows_match_one_row_calls(q_factor):
    # the (zb, s) pairs ground_shift hands over: s = sigma(iu) along its
    # frequency nodes for mu in [0, 1], zb across [1e-4, 40]
    rng = np.random.default_rng(7)
    u = W0 * np.tan(rng.uniform(0.0, 1.5, 48))
    mu = rng.uniform(0.0, 1.0, 48)
    s = np.array([_sigma_ec(FrequencyAxis.IMAG, ui,
                            cs.GrapheneParams.from_fractions(m, W0, q_factor)
                            ).real for ui, m in zip(u, mu)])
    zb = np.geomspace(1e-4, 40.0, 48)
    rows = _trace_imag_scaled(zb, s, gradient=True)
    values = _trace_imag_scaled(zb, s)
    assert rows.shape == (2, 48) and values.shape == (48,)
    for i in range(48):
        one = _trace_imag_scaled(zb[i], s[i], gradient=True)
        np.testing.assert_allclose(rows[:, i], one, rtol=1e-14, atol=0.0)
        assert values[i] == pytest.approx(_trace_imag_scaled(zb[i], s[i]),
                                          rel=1e-14, abs=0.0)
