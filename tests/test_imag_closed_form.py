"""The imaginary-axis kernel in closed form, as an oracle of the adaptive one.

Under the weight e^{-2 chi zb} the integrand of greens._trace_imag_scaled is
a rational function of chi with poles at chi = -s/2 and chi = -2/s.  Partial
fractions over [1, inf) leave scaled exponential integrals
F_m(x) = Int_0^inf e^{-t} t^m/(t + x) dt = m! e^x E_{m+1}(x), and with
p = 2 zb, x1 = p (1 + s/2), x2 = p (1 + 2/s):

    T      = -e^{-p}/(4 pi) [ (s/2) F0(x1) + F0(x2) + 5 F1(x2)/p
                              + 6 F2(x2)/p^2 + 2 F3(x2)/p^3 ]
    dT/dzb =  e^{-p}/(2 pi) [ (s/2) (F0(x1) + F1(x1)/p) + F0(x2)
                              + 6 F1(x2)/p + 11 F2(x2)/p^2 + 8 F3(x2)/p^3
                              + 2 F4(x2)/p^4 ]

Every coefficient is positive, so no term cancels at any (zb, s).  F_m comes
from 30-digit mpmath here.
"""

import mpmath
import numpy as np

import casimir_sense as cs
from casimir_sense.greens import _trace_imag_scaled

import integrand_oracle


def _f(m, x):
    """F_m(x) = m! e^x E_{m+1}(x)."""
    return mpmath.factorial(m) * mpmath.exp(x) * mpmath.expint(m + 1, x)


def closed_form(zb, s):
    """(T, dT/dzb) of the imaginary-axis kernel, from 30-digit mpmath."""
    with mpmath.workdps(30):
        zb, s = mpmath.mpf(zb), mpmath.mpf(s)
        p = 2 * zb
        f1 = [_f(m, p * (1 + s / 2)) for m in range(2)]
        f2 = [_f(m, p * (1 + 2 / s)) for m in range(5)]
        decay = mpmath.exp(-p)
        value = -decay / (4 * mpmath.pi) * (
            s / 2 * f1[0] + f2[0] + 5 * f2[1] / p + 6 * f2[2] / p**2
            + 2 * f2[3] / p**3)
        slope = decay / (2 * mpmath.pi) * (
            s / 2 * (f1[0] + f1[1] / p) + f2[0] + 6 * f2[1] / p
            + 11 * f2[2] / p**2 + 8 * f2[3] / p**3 + 2 * f2[4] / p**4)
        return float(value), float(slope)


def _grid():
    """110 fixed points, corners included, over the (zb, s) box the ground
    shift reaches: zb in [1e-5, 50], s in [1e-5, 3e3]."""
    return (a.ravel() for a in np.meshgrid(np.geomspace(1e-5, 50.0, 11),
                                           np.geomspace(1e-5, 3e3, 10)))


def test_imag_kernel_matches_closed_form():
    zb, s = _grid()
    ref = np.array([closed_form(a, b) for a, b in zip(zb, s)]).T
    got = _trace_imag_scaled(zb, s)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0)


def test_imag_kernel_has_one_sign():
    # the inner rows may stop at the outer tolerance because no two of them
    # cancel: T < 0 and dT/dzb > 0 wherever s > 0 (quadrature docstring)
    value, slope = _trace_imag_scaled(*_grid())
    assert np.all(value < 0.0) and np.all(slope > 0.0)


#: (mu / hbar w0, w0/gamma_g, d in m): six points of scripts/node_census.py's
#: grid, undoped to heavily doped, both losses, 1 nm to 100 um
_CENSUS_POINTS = [(mu, q, float(np.geomspace(1e-9, 1e-4, 16)[k]))
                  for mu, q, k in [(0.0, 1e3, 0), (1e-3, 1e7, 4),
                                   (0.05, 1e3, 7), (0.3, 1e7, 12),
                                   (0.8, 1e3, 6), (1.0, 1e7, 15)]]


def test_in_place_integrand_matches_the_expression_form_bit_for_bit(
        monkeypatch):
    # the kernel forms its integrand in place; the oracle is the expression
    # it replaced, so kernel and ground shift must not move by one bit
    zb, s = _grid()
    emitter = cs.reference_scenario().emitter
    sheets = [cs.GrapheneParams.from_fractions(mu, emitter.omega0, q)
              for mu, q, _ in _CENSUS_POINTS]
    kernel = _trace_imag_scaled(zb, s)
    shifts = [cs.ground_shift(d, emitter, g)
              for (_, _, d), g in zip(_CENSUS_POINTS, sheets)]
    integrand_oracle.patch_in(monkeypatch)
    assert np.array_equal(_trace_imag_scaled(zb, s), kernel)
    for (_, _, d), g, (value, error) in zip(_CENSUS_POINTS, sheets, shifts):
        oracle_value, oracle_error = cs.ground_shift(d, emitter, g)
        assert np.array_equal(oracle_value, value)
        assert np.array_equal(oracle_error, error)
