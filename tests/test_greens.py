import cmath
import math

import mpmath
import numpy as np
import pytest

import casimir_sense as cs
from casimir_sense import greens, quadrature
from casimir_sense.graphene import FrequencyAxis, _sigma_ec
from casimir_sense.greens import _trace_imag_scaled

import real_axis_oracle
from conftest import (brute_trace_imag, brute_trace_real, quad_trace_real,
                      trace_imag)

W0 = 2 * math.pi * cs.CONSTANTS.c / 2e-6


def graphene(mu_frac):
    return cs.GrapheneParams.from_fractions(mu_frac, W0, 1e3)


def test_imag_axis_trace_is_negative_and_decays_with_distance():
    g = graphene(0.8)
    vals = [trace_imag(z, W0, g) for z in np.linspace(8e-9, 80e-9, 8)]
    assert all(v < 0 for v in vals)
    mags = np.abs(vals)
    assert np.all(np.diff(mags) < 0)


def test_imag_axis_trace_against_brute_force_oracle():
    g = graphene(0.8)
    adaptive = trace_imag(18e-9, W0, g)
    oracle = brute_trace_imag(18e-9, W0, g)
    assert abs(oracle.imag) <= 1e-9 * abs(oracle.real)
    assert adaptive == pytest.approx(oracle.real, rel=1e-6)


def test_real_axis_trace_against_brute_force_oracle():
    g = graphene(0.8)
    (prop, _), (evan, _) = cs.trace_green_real_parts(18e-9, W0, g)
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
    parts = [value for value, _ in cs.trace_green_real_parts(18e-9, W0, g)]
    for part, ref in zip(parts, quad_trace_real(18e-9, W0, g)):
        assert part.real == pytest.approx(ref.real, rel=1e-9)
        assert part.imag == pytest.approx(ref.imag, rel=1e-9)


REAL_AXIS_GRID = [0.0, 0.3, 0.5 - 1e-7, 0.5 + 1e-7, 0.55, 0.6, 0.8, 1.0]


@pytest.mark.parametrize("mu_frac", [0.0, 0.3, 0.5 + 1e-7, 0.55, 0.6, 0.8,
                                     1.0])
def test_real_axis_node_count_is_bounded(monkeypatch, mu_frac):
    # the oracle's panel edges are graded toward the Fresnel poles, so
    # neither a pole next to the path nor a narrow plasmon needs deep
    # bisection
    nodes = [0]
    refine = real_axis_oracle.integrate_refined

    def counting(f, edges, **kwargs):
        def counted(x):
            nodes[0] += np.size(x)
            return f(x)
        return refine(counted, edges, **kwargs)

    monkeypatch.setattr(real_axis_oracle, "integrate_refined", counting)
    for q_factor in (1e3, 1e7):
        g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
        for z in (8e-9, 18e-9, 40e-9):
            nodes[0] = 0
            real_axis_oracle.trace_real_parts(z, W0, g, gradient=True)
            assert 0 < nodes[0] <= 20_000, (q_factor, z, nodes[0])


def test_real_axis_closed_form_makes_no_quadrature_call(monkeypatch):
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call

    for name in ("integrate_refined", "integrate_rows"):
        monkeypatch.setattr(greens, name, refuse(name))
        monkeypatch.setattr(quadrature, name, refuse(name))
    for mu_frac in REAL_AXIS_GRID + [0.5]:
        for q_factor in (1e3, 1e7):
            g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
            for z in (1e-9, 18e-9, 1e-4):
                cs.trace_green_real_parts(z, W0, g)
    assert calls == []


@pytest.mark.parametrize("mu_frac", REAL_AXIS_GRID)
@pytest.mark.parametrize("q_factor", [1e3, 1e7])
def test_real_axis_closed_form_matches_quadrature_oracle(mu_frac, q_factor):
    g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
    for z in (8e-9, 18e-9, 40e-9):
        closed = cs.trace_green_real_parts(z, W0, g)
        oracle = real_axis_oracle.trace_real_parts(z, W0, g, gradient=True)
        for part, ref in zip(closed, oracle):
            assert np.all(abs(part - ref) <= 1e-9 * abs(ref)), (z, part, ref)


@pytest.mark.parametrize("s_imag", [0.0127, -0.0127, 0.5, -3.0])
@pytest.mark.parametrize("zb", [0.0565, 1.0, 30.0])
def test_lossless_sheet_is_the_limit_of_small_loss(s_imag, zb):
    # Re s = 0: the plasmon pole sits on the evanescent path, and G takes
    # the lower lip of E1's cut, the side a small loss approaches from
    lossless = greens._trace_real_scaled(zb, complex(0.0, s_imag))
    lossy = greens._trace_real_scaled(zb, complex(1e-12, s_imag))
    for part, ref in zip(lossless, lossy):
        assert np.all(np.isfinite(part))
        assert np.all(abs(part - ref) <= 1e-9 * abs(ref)), (part, ref)


def _en_reference(z, n=1):
    with mpmath.workdps(30):
        w = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(w) * mpmath.expint(n, w))


def _scaled_e1(z):
    # G as the closed forms take it: the one path through _laplace_poles,
    # which takes the asymptotic series for |z| >= 50
    return greens._laplace_poles(z, 0)[0]


def test_scaled_e1_against_mpmath_log_polar_sweep():
    # |z| from 1e-8 to 1e8 at every angle, and both lips of the cut
    angles = [math.pi * k / 24 for k in range(-24, 25)]
    angles += [math.pi - 1e-12, -(math.pi - 1e-12)]
    worst = 0.0
    for k in range(-32, 33):
        for angle in angles:
            z = cmath.rect(10.0 ** (k / 4), max(min(angle, math.pi - 1e-12),
                                                 -(math.pi - 1e-12)))
            with mpmath.workdps(30):
                w = mpmath.mpc(z.real, z.imag)
                ref = complex(mpmath.exp(w) * mpmath.e1(w))
            worst = max(worst, abs(_scaled_e1(z) - ref) / abs(ref))
    assert worst <= 1e-12


def test_scaled_en_at_the_arguments_of_the_real_axis_grid(monkeypatch):
    # every (z, n) the closed forms evaluate: E1 at the segment ends and
    # the evanescent poles, E5 where F_0..F_4 come from the top down
    seen = []
    en = greens._en_scaled

    def recording(z, n=1):
        seen.append((z, n))
        return en(z, n)

    monkeypatch.setattr(greens, "_en_scaled", recording)
    for mu_frac in REAL_AXIS_GRID:
        for q_factor in (1e3, 1e7):
            g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
            for z in (8e-9, 18e-9, 40e-9):
                cs.trace_green_real_parts(z, W0, g)
    assert len(seen) > 100 and {n for _, n in seen} == {1, 5}
    for z, n in seen:
        ref = _en_reference(z, n)
        assert abs(en(z, n) - ref) <= 1e-12 * abs(ref), (z, n)


@pytest.mark.parametrize("call", [
    lambda: greens._en_scaled(complex(math.nan, 0.0)),
    lambda: greens._en_scaled(complex(1.0, math.inf), 5),
    lambda: greens._laplace_poles(complex(math.nan, 1.0), 4),
    lambda: greens._trace_real_scaled(0.4, complex(math.nan, 1.0)),
], ids=["en-nan", "en-inf", "laplace-poles-nan", "real-kernel-nan-s"])
def test_non_finite_en_argument_is_a_numerics_error(call):
    # the power series and the continued fraction stop only on convergence
    # tests that nan never passes: a typed error, not a hang
    with pytest.raises(cs.NumericsError, match="E_n argument z"):
        call()


@pytest.mark.parametrize("zb", [math.nan, math.inf, 0.0, -1.0])
def test_real_kernel_rejects_bad_height(zb):
    with pytest.raises(cs.NumericsError, match="zb"):
        greens._trace_real_scaled(zb, complex(0.01, 1.0))


@pytest.mark.parametrize("mu_frac, q_factor, z", [
    (0.8, 1e7, 40e-9), (0.8, 1e7, 18e-9), (0.6, 1e3, 18e-9),
    (0.0, 1e3, 8e-9)])
def test_evanescent_part_against_mpmath_quadrature(mu_frac, q_factor, z):
    # the plasmon pole -p b_p lands near |z| = 40 on the cut at 40 nm, where
    # an upward recurrence from G would lose |z|^4/4! of F_4
    g = cs.GrapheneParams.from_fractions(mu_frac, W0, q_factor)
    s = complex(_sigma_ec(FrequencyAxis.REAL, W0, g))
    zb = z * W0 / cs.CONSTANTS.c
    _, evan = greens._trace_real_scaled(zb, s)
    with mpmath.workdps(30):
        zeta = 1 / mpmath.mpc(s.real, s.imag)
        b_p, b_s, p = 2j * zeta, 0.5j / zeta, 2 * zb

        def f(q, power):
            return (-2 * q) ** power * mpmath.exp(-p * q) * (
                b_s / (q - b_s) + (1 + 2 * q * q) * q / (q - b_p))

        c, w = b_p.real, abs(b_p.imag)
        pts = sorted({0, max(c - 10 * w, 0), c, c + 10 * w, 2 * c + 10})
        for power in (0, 1):
            ref = complex(mpmath.quad(lambda q: f(q, power), pts + [mpmath.inf])
                          / (4 * mpmath.pi))
            assert abs(evan[power] - ref) <= 1e-12 * abs(ref), power


def test_scaled_e1_agrees_with_scipy():
    # a cross-check only: scipy's exp1 is the unscaled E1, so |z| <= 300
    from scipy.special import exp1

    for k in range(-16, 10):
        for angle in np.linspace(-math.pi + 1e-9, math.pi - 1e-9, 17):
            z = cmath.rect(10.0 ** (k / 4), angle)
            ref = cmath.exp(z) * complex(exp1(z))
            assert abs(_scaled_e1(z) - ref) <= 1e-9 * abs(ref), z


@pytest.mark.parametrize("mu_frac", [0.0, 0.3, 0.5, 0.6, 0.8, 1.0])
def test_imag_kernel_node_count_is_bounded(monkeypatch, mu_frac):
    # the inner integrals of one interaction_and_gradient call at 18 nm take
    # 106,560 nodes over mu in [0, 1] and w0/gamma_g 1e3 and 1e7; rows
    # refined past the outer tolerance (1e-10) took 137,280-138,240
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
        assert 0 < nodes[0] <= 120_000, (q_factor, nodes[0])


def test_oracle_equivalence_at_random_points():
    rng = np.random.default_rng(20240814)
    for _ in range(5):
        z = 10.0 ** rng.uniform(math.log10(8e-9), math.log10(60e-9))
        mu_frac = rng.uniform(0.0, 1.1)
        freq = rng.uniform(0.3, 2.0) * W0
        g = graphene(mu_frac)
        a_imag = trace_imag(z, freq, g)
        o_imag = brute_trace_imag(z, freq, g).real
        assert a_imag == pytest.approx(o_imag, rel=1e-5), (z, mu_frac, freq)
        total = sum(cs.trace_green_real_parts(z, freq, g))[0]
        o_total = sum(brute_trace_real(z, freq, g))
        assert total.real == pytest.approx(o_total.real, rel=1e-5)
        assert total.imag == pytest.approx(o_total.imag, rel=1e-5)


def test_absorption_grows_at_short_distance():
    # undoped graphene: evanescent absorption channel dominates Im Tr G and
    # grows monotonically as the emitter approaches the sheet
    g = graphene(0.0)
    zs = np.linspace(5e-9, 40e-9, 6)
    ims = [sum(cs.trace_green_real_parts(z, W0, g))[0].imag for z in zs]
    assert all(v > 0 for v in ims)
    assert np.all(np.diff(ims) < 0)


def test_trace_rejects_bad_arguments():
    g = graphene(0.5)
    with pytest.raises(ValueError):
        cs.trace_green_real_parts(0.0, W0, g)
    with pytest.raises(ValueError):
        cs.trace_green_real_parts(1e-8, 0.0, g)
    with pytest.raises(ValueError):
        cs.trace_green_real_parts(-1e-9, W0, g)


@pytest.mark.parametrize("zb", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("s", [0.01, 1.0])
def test_imag_kernel_gradient_matches_central_difference(zb, s):
    _, slope = _trace_imag_scaled(zb, s)
    h = 1e-4 * zb
    diff = (_trace_imag_scaled(zb + h, s)[0]
            - _trace_imag_scaled(zb - h, s)[0]) / (2.0 * h)
    assert slope == pytest.approx(diff, rel=1e-6)


@pytest.mark.parametrize("z", [8e-9, 40e-9, 2e-6])
@pytest.mark.parametrize("mu_frac", [0.0, 0.8])
def test_real_axis_gradient_matches_central_difference(mu_frac, z):
    # each sector on its own: near the sheet the propagating slope is 1e-8
    # of the evanescent one, so only the far point resolves it in the sum
    g = graphene(mu_frac)
    h = 1e-4 * z
    parts = cs.trace_green_real_parts(z, W0, g)
    up = cs.trace_green_real_parts(z + h, W0, g)
    down = cs.trace_green_real_parts(z - h, W0, g)
    for (_, slope), hi, lo in zip(parts, up, down):
        assert slope == pytest.approx((hi[0] - lo[0]) / (2.0 * h), rel=1e-6)


@pytest.mark.parametrize("q_factor", [1e3, 1e5])
def test_imag_kernel_rows_match_one_row_calls(q_factor):
    # the (zb, s) pairs ground_shift hands over: s = sigma(iu) along its
    # frequency nodes for mu in [0, 1], zb across [1e-4, 40]
    rng = np.random.default_rng(7)
    u = W0 * np.tan(rng.uniform(0.0, 1.5, 48))
    mu = rng.uniform(0.0, 1.0, 48)
    s = np.array([_sigma_ec(FrequencyAxis.IMAG, ui,
                            cs.GrapheneParams.from_fractions(m, W0, q_factor))
                  for ui, m in zip(u, mu)])
    zb = np.geomspace(1e-4, 40.0, 48)
    rows = _trace_imag_scaled(zb, s)
    assert rows.shape == (2, 48)
    # the (panels x nodes) layout of an outer call: the same rows, reshaped
    grid = _trace_imag_scaled(zb.reshape(2, 24), s.reshape(2, 24))
    assert np.array_equal(grid, rows.reshape(2, 2, 24))
    # a scalar gives the one [T, dT/dzb] pair of its one-row call
    scalar = _trace_imag_scaled(zb[0], s[0])
    assert scalar.shape == (2,)
    assert np.array_equal(scalar, _trace_imag_scaled(zb[:1], s[:1])[:, 0])
    for i in range(48):
        one = _trace_imag_scaled(zb[i], s[i])
        np.testing.assert_allclose(rows[:, i], one, rtol=1e-14, atol=0.0)
