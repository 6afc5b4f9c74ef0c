import numpy as np
import pytest

import casimir_sense as cs
from casimir_sense.graphene import FrequencyAxis, _sigma_ec
from casimir_sense.greens import _trace_imag_scaled
from casimir_sense.quadrature import _gauss_nodes, _level

C = cs.CONSTANTS


@pytest.fixture(scope="session")
def ref_scenario():
    """Operating point behind all the headline numbers."""
    return cs.reference_scenario()


@pytest.fixture(scope="session")
def ref_coupling(ref_scenario):
    """(InteractionResult, CouplingGradient, CouplingResult) at d = 18 nm."""
    return cs.evaluate_coupling(ref_scenario)


@pytest.fixture
def config_text():
    return """
[emitter]
lambda0_m = 2e-6
gamma0_rad_s = 1.5079644737e9

[graphene]
mu_over_hbar_omega0 = 0.8

[mechanics]
omega_m_rad_s = 6.2831853072e6
mass_kg = 2.81e-18
quality_factor = 5e4
bath_temperature_k = 1.0

[drive]
epsilon = 0.3
eta_det = 0.75

[geometry]
distance_m = 18e-9
"""


def brute_trace_imag(z, u, g, n=1_000_001):
    """Trapezoid oracle for Tr G(z, z, iu) from the generic complex formula.

    Written directly from the reflected-trace integral with omega = iu and
    k_perp on the Im >= 0 branch; shares no code with the adaptive path.
    """
    sig = cs.sigma_imag_axis(u, g) * C.sigma0
    s = sig / (C.eps0 * C.c)
    w = 1j * u / C.c                       # omega/c on the imag axis
    kmax = (50.0 / z) + 10.0 * (u / C.c)
    k = np.linspace(1e-6 * u / C.c, kmax, n)
    kperp = np.sqrt(np.asarray(w**2 - k**2, dtype=complex))
    rp = kperp * s / (kperp * s + 2.0 * w)
    rs = -s * w / (2.0 * kperp + s * w)
    integrand = (k / kperp) * np.exp(2j * kperp * z) \
        * (w**2 * rs + (k**2 - kperp**2) * rp)
    val = (1j / (4.0 * np.pi * w**2)) * np.trapezoid(integrand, k)
    return complex(val)


def brute_trace_real(z, omega, g, n=2_000_001):
    """Simpson oracle for the real-axis trace, split at the light line.

    Propagating sector in the angle variable k = (w/c) sin(theta),
    evanescent sector in q = sqrt(k^2 - (w/c)^2); both substitutions remove
    the 1/k_perp endpoint singularity analytically.
    """
    from scipy.integrate import simpson

    sig = cs.sigma_real_axis(omega, g) * C.sigma0
    s = sig / (C.eps0 * C.c)
    kw = omega / C.c
    zb = z * kw

    theta = np.linspace(0.0, np.pi / 2.0, n // 4)
    ct, st = np.cos(theta), np.sin(theta)
    rp = ct * s / (ct * s + 2.0)
    rs = -s / (2.0 * ct + s)
    f_prop = 1j * st * np.exp(2j * ct * zb) * (rs + (st**2 - ct**2) * rp)
    prop = simpson(f_prop, x=theta) / (4.0 * np.pi)

    def f_evan(q):
        rp = 1j * q * s / (1j * q * s + 2.0)
        rs = -s / (2j * q + s)
        return np.exp(-2.0 * q * zb) * (rs + (1.0 + 2.0 * q**2) * rp)

    # r_s relaxes from -1 over q ~ |s|: resolve that layer on its own grid
    qmax = 50.0 / zb + 10.0
    q_layer = min(max(20.0 * abs(s), 1e-3), 0.5 * qmax)
    q1 = np.linspace(0.0, q_layer, 400_001)
    q2 = np.linspace(q_layer, qmax, n)
    evan = (simpson(f_evan(q1), x=q1) + simpson(f_evan(q2), x=q2)) \
        / (4.0 * np.pi)
    return kw * complex(prop), kw * complex(evan)


def quad_trace_real(z, omega, g):
    """scipy.integrate.quad oracle for the real-axis trace parts.

    QUADPACK's adaptive Gauss-Kronrod rule, run piecewise between
    breakpoints at each Fresnel pole's nearest point of the path and at
    decades of its distance from it; the evanescent sector runs to infinity.
    Resolves poles far closer to the path than the uniform grids of
    brute_trace_real, and shares no code with the adaptive path.
    """
    from scipy.integrate import quad

    sig = cs.sigma_real_axis(omega, g) * C.sigma0
    s = sig / (C.eps0 * C.c)
    kw = omega / C.c
    zb = z * kw

    def f_prop(theta):
        ct, st = np.cos(theta), np.sin(theta)
        rp = ct * s / (ct * s + 2.0)
        rs = -s / (2.0 * ct + s)
        return 1j * st * np.exp(2j * ct * zb) * (rs + (st**2 - ct**2) * rp)

    def f_evan(q):
        rp = 1j * q * s / (1j * q * s + 2.0)
        rs = -s / (2j * q + s)
        return np.exp(-2.0 * q * zb) * (rs + (1.0 + 2.0 * q**2) * rp)

    def breaks(poles, hi):
        pts = {0.0, 1.0, hi}
        for p in poles:
            c = max(p.real, 0.0)
            pts |= {c + sign * abs(p - c) * 10.0**k
                    for sign in (-1, 0, 1) for k in range(12)}
        return sorted(x for x in pts if 0.0 <= x <= hi)

    def piecewise(f, pts):
        return sum(quad(f, a, b, complex_func=True, epsabs=0.0, epsrel=1e-11,
                        limit=200)[0] for a, b in zip(pts[:-1], pts[1:]))

    # cos(theta) = -s/2, -2/s and q = is/2, 2i/s: poles of r_s and r_p
    theta = sorted(np.arccos(breaks((-0.5 * s, -2.0 / s), 1.0)))
    prop = piecewise(f_prop, theta)
    evan = piecewise(f_evan, breaks((0.5j * s, 2j / s), np.inf))
    return kw * complex(prop) / (4.0 * np.pi), kw * complex(evan) / (4.0 * np.pi)


def kk_sigma_imag_oracle(u, g):
    """sigma(iu) from the dispersion integral over the real-axis absorption.

    sigma(iu) = (2/pi) Int_0^inf dw u Re sigma(w) / (w^2 + u^2), evaluated by
    adaptive quadrature up to a large cutoff; the universal-conductivity tail
    beyond the cutoff is added in closed form.
    """
    from scipy.integrate import quad

    mu, gg = g.mu, g.gamma_g
    s0 = C.sigma0

    def re_sigma(w):
        drude = s0 * (4.0 * mu / np.pi) * gg / (w**2 + gg**2)
        inter = s0 if w > 2.0 * mu else 0.0
        return drude + inter

    cutoff = 1e5 * max(u, 2.0 * mu, gg, 1e-3)
    pts = sorted(p for p in (gg, u, 2.0 * mu) if 0.0 < p < cutoff)
    val, _ = quad(lambda w: u * re_sigma(w) / (w**2 + u**2), 0.0, cutoff,
                  points=pts, limit=500, epsabs=0.0, epsrel=1e-10)
    tail = s0 * np.arctan(u / cutoff)     # step part continues to infinity
    return (2.0 / np.pi) * (val + tail)


def trace_imag(z, u, g):
    """Reflected Tr G(z, z, iu) from the pipeline's imaginary-axis kernel."""
    s = _sigma_ec(FrequencyAxis.IMAG, u, g)
    q0 = u / C.c
    return q0 * _trace_imag_scaled(z * q0, s)[0]


def fixed_panels(f, edges):
    """One quadrature level of f: 24-point Gauss-Legendre on each panel."""
    edges = np.asarray(edges, dtype=float)[None]
    return _level(f, [edges], [], *_gauss_nodes(24))[0][..., 0]
