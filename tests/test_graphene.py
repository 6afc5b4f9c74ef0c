import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import casimir_sense as cs

from conftest import kk_sigma_imag_oracle

W0 = 2 * math.pi * cs.CONSTANTS.c / 2e-6     # reference frequency, rad/s


def graphene(mu_frac, ratio=1e3):
    return cs.GrapheneParams.from_fractions(mu_frac, W0, ratio)


# ---------------------------------------------------------------------------
# real axis

def test_undoped_sheet_has_universal_conductivity():
    g = graphene(0.0)
    for w in (0.2 * W0, W0, 5 * W0):
        val = cs.sigma_real_axis(w, g)
        assert val == pytest.approx(1.0, rel=1e-12)


def test_plasmonic_regime_at_high_doping():
    # hbar w0 < 2 mu: interband absorption off, net imaginary part positive
    val = cs.sigma_real_axis(W0, graphene(0.8))
    drude_re = (4 * 0.8 / math.pi) * 1e-3 / (1 + 1e-6)
    assert val.real == pytest.approx(drude_re, rel=1e-9)
    assert val.real < 0.01
    assert val.imag > 0


def test_absorptive_regime_at_low_doping():
    # hbar w0 > 2 mu: interband step active, Re sigma ~ sigma0 + small Drude
    val = cs.sigma_real_axis(W0, graphene(0.4))
    assert val.real > 1.0
    assert val.real == pytest.approx(1.0, rel=1e-3)
    assert val.imag < 0


def test_passivity_on_real_axis():
    for mu_frac in (0.0, 0.3, 0.55, 0.8, 1.2):
        g = graphene(mu_frac)
        w = np.geomspace(0.01, 10.0, 200) * W0
        vals = cs.sigma_real_axis(w, g)
        assert np.all(vals.real >= 0)


def test_sigma_returns_plain_values_in_sigma0_units():
    # a scalar frequency gives a plain number, an array an ndarray; the
    # undoped sheet is exactly sigma0, and the interband edge hbar w = 2 mu
    # keeps Im sigma = -inf, never nan
    assert type(cs.sigma_real_axis(W0, graphene(0.8))) is complex
    assert type(cs.sigma_imag_axis(W0, graphene(0.8))) is float
    w = np.array([0.5, 1.0]) * W0
    assert isinstance(cs.sigma_real_axis(w, graphene(0.8)), np.ndarray)
    assert isinstance(cs.sigma_imag_axis(w, graphene(0.8)), np.ndarray)
    assert cs.sigma_real_axis(W0, graphene(0.0)) == 1.0
    edge = cs.sigma_real_axis(W0, graphene(0.5))
    assert math.isfinite(edge.real) and edge.imag == -math.inf


def test_sigma_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        cs.sigma_real_axis(0.0, graphene(0.5))
    with pytest.raises(ValueError):
        cs.sigma_imag_axis(-1.0, graphene(0.5))


# ---------------------------------------------------------------------------
# imaginary axis

def test_imag_axis_undoped_limit():
    g = graphene(0.0)
    u = np.geomspace(1e-3, 1e3, 50) * W0
    vals = cs.sigma_imag_axis(u, g)
    assert np.allclose(vals, 1.0, rtol=1e-12)


def test_imag_axis_high_frequency_limit():
    g = graphene(0.8)
    val = cs.sigma_imag_axis(1e6 * W0, g)
    assert val == pytest.approx(1.0, rel=1e-5)


def test_imag_axis_monotone_decreasing_at_default_loss():
    # strictly decreasing up to u* = (4 mu^2 - gamma_g^2)/(2 gamma_g), which
    # sits at ~1.3e3 w0 for mu = 0.8, just beyond the tested decade range
    g = graphene(0.8)
    u = np.geomspace(1e-3, 1e3, 400) * W0
    vals = cs.sigma_imag_axis(u, g)
    assert np.all(np.diff(vals) < 0)


def test_kk_match_at_operating_point():
    g = graphene(0.8)
    closed = cs.sigma_imag_axis(W0, g) * cs.CONSTANTS.sigma0
    oracle = kk_sigma_imag_oracle(W0, g)
    assert closed == pytest.approx(oracle, rel=1e-6)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(logu=st.floats(-3.0, 3.0), mu_frac=st.floats(0.05, 1.2))
def test_kk_dispersion_property(logu, mu_frac):
    g = graphene(mu_frac)
    u = 10.0**logu * W0
    closed = cs.sigma_imag_axis(u, g) * cs.CONSTANTS.sigma0
    oracle = kk_sigma_imag_oracle(u, g)
    assert closed == pytest.approx(oracle, rel=1e-5)
