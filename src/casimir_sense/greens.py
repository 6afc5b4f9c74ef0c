"""Reflected dyadic Green's-function trace above the graphene sheet.

For an emitter at height z the trace of the reflected Green's function is

    Tr G(z, z, w) = (i c^2 / 4 pi w^2) *
        Int_0^inf dk_par (k_par/k_perp) e^{2 i k_perp z}
                         [ (w/c)^2 r_s + (k_par^2 - k_perp^2) r_p ],

with k_perp = sqrt((w/c)^2 - k_par^2), Im k_perp >= 0.  Only this reflected
part enters the shifts and rates; the free part is absorbed into omega0 and
Gamma0.

Internally the integral is scaled per call by the frequency's own wavevector
q0 = |w|/c, so Tr G = q0 * T(z*q0) with dimensionless kernels:

  imaginary axis (w = iu, everything real), integrated over chi =
  sqrt(1 + x^2), whose Jacobian cancels the x/chi of the k_par form:
      T = (1/4pi) Int_1^inf dchi e^{-2 chi zb} [ r_s - (2 chi^2 - 1) r_p ],
      r_p = chi s/(chi s + 2),  r_s = -s/(2 chi + s),
      s = sigma(iu)/(eps0 c) > 0, zb = z u / c.  The factor e^{-2 zb} is
      pulled out analytically so the adaptive refinement sees a kernel of
      order unity at any u; no node takes a square root.

  real axis, split at the light line x = 1, with the sheet impedance
  zeta = 1/s in place of s (zeta = 0 at the interband edge, where
  Im s = -inf and the same formulas in s give nan):
      propagating, x = sin(theta):
        T_prop = (i/4pi) Int_0^{pi/2} dtheta sin(theta) e^{2 i zb cos(theta)}
                 [ r_s + (sin^2 - cos^2) r_p ],
        r_p = cos(theta)/(cos(theta) + 2 zeta),
        r_s = -1/(2 zeta cos(theta) + 1)
      evanescent, q = sqrt(x^2 - 1) as integration variable (the Jacobian
      cancels the 1/k_perp singularity exactly):
        T_evan = (1/4pi) Int_0^inf dq e^{-2 q zb} [ r_s + (1 + 2 q^2) r_p ],
        r_p = i q/(i q + 2 zeta),  r_s = -1/(2 i q zeta + 1).

The Fresnel denominators have one pole each in the integration variable:
cos(theta) = -1/(2 zeta) (r_s) and -2 zeta (r_p) for the propagating part,
q = i/(2 zeta) (r_s) and the surface plasmon q_p = 2i zeta (r_p) for the
evanescent part.  The loss keeps them off the path, but at a distance w
that can be 1e-7 of their position c = max(Re p, 0) (clean graphene, or
|s| ~ 1e-5 where the Drude and interband parts of Im s cancel).  The panel
edges are graded geometrically toward each pole, c +- w 4^k for k >= 0
while w 4^k <= max(c, 1): a panel near a pole is at most a few times wider
than its distance from it, so a few bisections resolve it at any loss.

The height enters each kernel only through its exponential, so dT/dzb is the
same integral with one more factor under it (-2 chi, 2i cos(theta), -2q); on
request the kernels return it from the same nodes.

The imaginary-axis kernel also takes arrays of (zb, s) rows and refines them
together (quadrature.integrate_rows), each row on its own panel edges; the
ground shift passes all frequency nodes of an outer level as one call.
"""

from __future__ import annotations

import numpy as np

from .constants import CONSTANTS
from .graphene import FrequencyAxis, _sigma_ec
from .params import GrapheneParams
from .quadrature import clip_edges, integrate_refined, integrate_rows

_RTOL = 1e-10
#: e^{-2 q zb} tail cutoff: exp(-2*(EXP_CUT)) ~ 1e-44 relative to the peak.
_EXP_CUT = 50.0


def _trace_imag_scaled(zb, s, gradient: bool = False):
    """Dimensionless imaginary-axis kernel T(zb, s); Tr G = (u/c) * T.

    zb and s may be equal-length arrays, one row each: all rows are
    integrated together and the result has one entry per row.  With
    gradient, returns [T, dT/dzb] stacked along the first axis.
    """
    def integrand(chi, zb, s):
        # -e^{-2 (chi-1) zb} [r_s - (2 chi^2 - 1) r_p], and chi times it,
        # written straight into the stack: r_s = -chi s/(chi s + 2 chi^2)
        out = np.empty((2, *chi.shape) if gradient else chi.shape)
        f = out[0] if gradient else out
        two_chi2 = 2.0 * chi * chi
        cs = chi * s
        np.exp(2.0 * zb * (1.0 - chi), out=f)
        f *= cs / (cs + two_chi2) + (two_chi2 - 1.0) * (cs / (cs + 2.0))
        if gradient:
            np.multiply(chi, f, out=out[1])
        return out

    zbs = np.atleast_1d(np.asarray(zb, dtype=float))
    x_edges = np.stack((np.zeros_like(zbs), 0.5 / zbs, 2.0 / zbs, 8.0 / zbs,
                        np.ones_like(zbs), _EXP_CUT / zbs + 10.0), axis=-1)
    edges = np.sqrt(1.0 + np.sort(x_edges) ** 2)
    val, _ = integrate_rows(integrand, edges, zbs, np.atleast_1d(s),
                            rtol=_RTOL)
    # d/dzb of e^{-2 chi zb} is -2 chi, and the integrand carries -1
    scale = np.array([-1.0, 2.0])[:, None] if gradient else -1.0
    out = scale * np.exp(-2.0 * zbs) * val / (4.0 * np.pi)
    if np.ndim(zb):
        return out
    return out[:, 0] if gradient else out[0]


def _graded_edges(poles):
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


def _trace_real_scaled(zb: float, s: complex, gradient: bool = False):
    """Dimensionless real-axis kernels; returns (T_prop, T_evan) complex.

    With gradient, each part is the array [T, dT/dzb].
    """
    if s == 0.0:
        return (np.zeros(2, complex),) * 2 if gradient else (0.0j, 0.0j)

    # Python's complex division works on the parts (Smith's method), so the
    # interband edge s = x - i inf gives zeta = 0 rather than nan
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
    graze = np.arccos(clip_edges(_graded_edges(poles), 0.0, 1.0))
    prop, _ = integrate_refined(prop_integrand, [np.pi / 3.0, *graze],
                                rtol=_RTOL)

    def evan_integrand(q):
        rp = 1j * q / (1j * q + 2.0 * zeta)
        rs = -1.0 / (2j * q * zeta + 1.0)
        f = np.exp(-2.0 * q * zb) * (rs + (1.0 + 2.0 * q * q) * rp)
        return np.array((f, -2.0 * q * f)) if gradient else f

    edges = clip_edges([0.5 / zb, 2.0 / zb, 8.0 / zb, 1.0,
                        *_graded_edges([-1j * p for p in poles])],
                       0.0, _EXP_CUT / zb + 10.0)
    evan, _ = integrate_refined(evan_integrand, edges, rtol=_RTOL)
    return prop / (4.0 * np.pi), evan / (4.0 * np.pi)


def trace_green_real_parts(z: float, omega: float, g: GrapheneParams,
                           gradient: bool = False):
    """(propagating, evanescent) parts of Tr G(z, z, omega), each complex 1/m.

    The split at k_par = omega/c is what separates radiative from
    non-radiative decay.  With gradient, each part is the complex array
    [value, d value/dz] (1/m, 1/m^2).
    """
    if z <= 0:
        raise ValueError("z must be positive")
    if omega <= 0:
        raise ValueError("omega must be positive")
    s = complex(_sigma_ec(FrequencyAxis.REAL, omega, g))
    q0 = omega / CONSTANTS.c
    prop, evan = _trace_real_scaled(z * q0, s, gradient=gradient)
    # Tr G = q0 T(z q0): d/dz brings one more factor q0
    unit = (q0, q0 * q0) if gradient else q0
    return unit * prop, unit * evan
