"""Adaptive-quadrature oracle for the real-axis trace parts.

The library integrates the propagating and evanescent parts in closed form
(exponential integrals of the Fresnel poles).  This is the engine it
replaced: the same integrands as in the ``greens`` docstring, written in the
angle theta and in q, integrated by the library's panel refinement with
edges graded geometrically toward each Fresnel pole.

The loss keeps the poles off the path, but at a distance w that can be 1e-7
of their position c = max(Re p, 0) (clean graphene, or |s| ~ 1e-5 where the
Drude and interband parts of Im s cancel).  The edges c +- w 4^k for k >= 0,
while w 4^k <= max(c, 1), keep a panel near a pole at most a few times wider
than its distance from it, so a few bisections resolve it at any loss.
"""

import numpy as np

import casimir_sense as cs
from casimir_sense.graphene import FrequencyAxis, _sigma_ec
from casimir_sense.quadrature import integrate_refined

RTOL = 1e-10
#: e^{-2 q zb} tail cutoff: exp(-2*(EXP_CUT)) ~ 1e-44 relative to the peak.
EXP_CUT = 50.0


def clip_edges(candidates, lo, hi):
    """Sorted unique edge list restricted to [lo, hi], endpoints included."""
    return np.array(sorted({lo, hi, *(p for p in candidates if lo < p < hi)}),
                    dtype=float)


def graded_edges(poles):
    """Edges c +- w 4^k (k >= 0, w 4^k <= max(c, 1)) toward each pole p near
    the path [0, inf): c = max(Re p, 0) is its nearest point, w = |p - c|."""
    edges = []
    for p in poles:
        c = max(p.real, 0.0)
        w, top = abs(p - c), max(c, 1.0)
        if 0.0 < w <= top:
            steps = w * 4.0 ** np.arange(int(np.log(top / w) / np.log(4.0)) + 1)
            edges += [*(c - steps), *(c + steps)]
    return edges


def trace_real_scaled(zb, s, gradient=False):
    """Dimensionless (T_prop, T_evan); with gradient, each is [T, dT/dzb]."""
    if s == 0.0:
        return (np.zeros(2, complex),) * 2 if gradient else (0.0j, 0.0j)
    zeta = 1.0 / s

    def prop_integrand(th):
        ct = np.cos(th)
        st = np.sin(th)
        rp = ct / (ct + 2.0 * zeta)
        rs = -1.0 / (2.0 * ct * zeta + 1.0)
        f = 1j * st * np.exp(2j * ct * zb) * (rs + (st * st - ct * ct) * rp)
        return np.array((f, 2j * ct * f)) if gradient else f

    # poles of r_p and r_s in k_perp/q0 = cos(theta) = i q; the r_s pole
    # leaves for infinity at the interband edge, where zeta = 0
    poles = [-2.0 * zeta]
    if zeta:
        poles.append(-0.5 / zeta)
    graze = np.arccos(clip_edges(graded_edges(poles), 0.0, 1.0))
    prop, _ = integrate_refined(prop_integrand, [np.pi / 3.0, *graze],
                                rtol=RTOL)

    def evan_integrand(q):
        rp = 1j * q / (1j * q + 2.0 * zeta)
        rs = -1.0 / (2j * q * zeta + 1.0)
        f = np.exp(-2.0 * q * zb) * (rs + (1.0 + 2.0 * q * q) * rp)
        return np.array((f, -2.0 * q * f)) if gradient else f

    edges = clip_edges([0.5 / zb, 2.0 / zb, 8.0 / zb, 1.0,
                        *graded_edges([-1j * p for p in poles])],
                       0.0, EXP_CUT / zb + 10.0)
    evan, _ = integrate_refined(evan_integrand, edges, rtol=RTOL)
    return prop / (4.0 * np.pi), evan / (4.0 * np.pi)


def trace_real_parts(z, omega, g, gradient=False):
    """(propagating, evanescent) Tr G parts in 1/m, as the library's
    trace_green_real_parts returns them."""
    s = complex(_sigma_ec(FrequencyAxis.REAL, omega, g))
    q0 = omega / cs.CONSTANTS.c
    prop, evan = trace_real_scaled(z * q0, s, gradient=gradient)
    unit = (q0, q0 * q0) if gradient else q0
    return unit * prop, unit * evan
