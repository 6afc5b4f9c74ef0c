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

  imaginary axis (w = iu, everything real):
      T = (1/4pi) Int dx (x/chi) e^{-2 chi zb} [ r_s - (x^2 + chi^2) r_p ],
      chi = sqrt(1 + x^2),  r_p = chi s/(chi s + 2),  r_s = -s/(2 chi + s),
      s = sigma(iu)/(eps0 c) > 0, zb = z u / c.  The factor e^{-2 zb} is
      pulled out analytically so the adaptive refinement sees a kernel of
      order unity at any u.

  real axis, split at the light line x = 1:
      propagating, x = sin(theta):
        T_prop = (i/4pi) Int_0^{pi/2} dtheta sin(theta) e^{2 i zb cos(theta)}
                 [ r_s + (sin^2 - cos^2) r_p ]
      evanescent, q = sqrt(x^2 - 1) as integration variable (the Jacobian
      cancels the 1/k_perp singularity exactly):
        T_evan = (1/4pi) Int_0^inf dq e^{-2 q zb} [ r_s + (1 + 2 q^2) r_p ],
        r_p = i q s/(i q s + 2),  r_s = -s/(2 i q + s).

The evanescent r_p denominator hosts the surface-plasmon pole near
q_p = 2i/s; the finite intraband loss keeps it off the real axis and the
panel edges are clustered around Re q_p so the Lorentzian is resolved.

The height enters each kernel only through its exponential, so dT/dzb is the
same integral with one more factor under it (-2 chi, 2i cos(theta), -2q); on
request the kernels return it from the same nodes.

The imaginary-axis kernel also takes arrays of (zb, s) rows and refines them
together (quadrature.integrate_rows), each row on its own panel edges; the
ground shift passes all frequency nodes of an outer level as one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS, PhysicalConstants
from .graphene import FrequencyAxis, _sigma_ec
from .params import GrapheneParams
from .quadrature import clip_edges, integrate_refined, integrate_rows

_RTOL = 1e-10
#: e^{-2 q zb} tail cutoff: exp(-2*(EXP_CUT)) ~ 1e-44 relative to the peak.
_EXP_CUT = 50.0


@dataclass(frozen=True)
class GreensTrace:
    """Tr G value at one (z, frequency) point; imaginary-axis values are real."""

    value: complex          # 1/m
    z: float                # m
    frequency: float        # rad/s (u for the imaginary axis)
    frequency_axis: FrequencyAxis


def _trace_imag_scaled(zb, s, gradient: bool = False):
    """Dimensionless imaginary-axis kernel T(zb, s); Tr G = (u/c) * T.

    zb and s may be equal-length arrays, one row each: all rows are
    integrated together and the result has one entry per row.  With
    gradient, returns [T, dT/dzb] stacked along the first axis.
    """
    def integrand(x, zb, s):
        chi = np.sqrt(1.0 + x * x)
        rp = chi * s / (chi * s + 2.0)
        rs = -s / (2.0 * chi + s)
        f = (x / chi) * np.exp(-2.0 * (chi - 1.0) * zb) \
            * (rs - (x * x + chi * chi) * rp)
        return np.array((f, -2.0 * chi * f)) if gradient else f

    zbs = np.atleast_1d(np.asarray(zb, dtype=float))
    edges = np.sort(np.stack((np.zeros_like(zbs), 0.5 / zbs, 2.0 / zbs,
                              8.0 / zbs, np.ones_like(zbs),
                              _EXP_CUT / zbs + 10.0), axis=-1))
    val, _ = integrate_rows(integrand, edges, zbs, np.atleast_1d(s),
                            rtol=_RTOL)
    out = np.exp(-2.0 * zbs) * val / (4.0 * np.pi)
    if np.ndim(zb):
        return out
    return out[:, 0] if gradient else out[0]


def _trace_real_scaled(zb: float, s: complex, gradient: bool = False):
    """Dimensionless real-axis kernels; returns (T_prop, T_evan) complex.

    With gradient, each part is the array [T, dT/dzb].
    """
    if s == 0.0:
        return (np.zeros(2, complex),) * 2 if gradient else (0.0j, 0.0j)

    def prop_integrand(th):
        ct = np.cos(th)
        st = np.sin(th)
        rp = ct * s / (ct * s + 2.0)
        rs = -s / (2.0 * ct + s)
        f = 1j * st * np.exp(2j * ct * zb) * (rs + (st * st - ct * ct) * rp)
        return np.array((f, 2j * ct * f)) if gradient else f

    # r_s varies on the scale cos(theta) ~ |s| near grazing incidence
    graze = [np.arccos(min(1.0, abs(s) * f)) for f in (0.25, 1.0, 4.0)]
    prop, _ = integrate_refined(
        prop_integrand, clip_edges([np.pi / 3.0, *graze], 0.0, np.pi / 2.0),
        rtol=_RTOL)

    def evan_integrand(q):
        rp = 1j * q * s / (1j * q * s + 2.0)
        rs = -s / (2j * q + s)
        f = np.exp(-2.0 * q * zb) * (rs + (1.0 + 2.0 * q * q) * rp)
        return np.array((f, -2.0 * q * f)) if gradient else f

    qmax = _EXP_CUT / zb + 10.0
    pole = 2j / s                      # r_p pole in the q variable
    q_r, q_w = pole.real, abs(pole.imag)
    q_w = max(q_w, 1e-6 * max(q_r, 1.0))
    pole_edges = [q_r + f * q_w for f in (-30.0, -6.0, -1.0, 1.0, 6.0, 30.0)] \
        if q_r > 0 else []
    # r_s relaxes from -1 on the scale q ~ |s|
    layer_edges = [abs(s) * f for f in (0.25, 1.0, 4.0)]
    edges = clip_edges([0.5 / zb, 2.0 / zb, 8.0 / zb, 1.0,
                        *layer_edges, *pole_edges], 0.0, qmax)
    evan, _ = integrate_refined(evan_integrand, edges, rtol=_RTOL)
    return prop / (4.0 * np.pi), evan / (4.0 * np.pi)


def trace_green_imag(z: float, u: float, g: GrapheneParams,
                     constants: PhysicalConstants = CONSTANTS) -> GreensTrace:
    """Reflected Tr G(z, z, iu); real, negative above a passive sheet."""
    if z <= 0:
        raise ValueError("z must be positive")
    if u <= 0:
        raise ValueError("u must be positive")
    s = float(np.real(_sigma_ec(FrequencyAxis.IMAG, u, g, constants)))
    q0 = u / constants.c
    value = q0 * _trace_imag_scaled(z * q0, s)
    return GreensTrace(value=value, z=z, frequency=u,
                       frequency_axis=FrequencyAxis.IMAG)


def trace_green_real_parts(z: float, omega: float, g: GrapheneParams,
                           constants: PhysicalConstants = CONSTANTS,
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
    s = complex(_sigma_ec(FrequencyAxis.REAL, omega, g, constants))
    q0 = omega / constants.c
    prop, evan = _trace_real_scaled(z * q0, s, gradient=gradient)
    # Tr G = q0 T(z q0): d/dz brings one more factor q0
    unit = (q0, q0 * q0) if gradient else q0
    return unit * prop, unit * evan


def trace_green_real(z: float, omega: float, g: GrapheneParams,
                     constants: PhysicalConstants = CONSTANTS) -> GreensTrace:
    """Reflected Tr G(z, z, omega) on the real axis (full complex value)."""
    prop, evan = trace_green_real_parts(z, omega, g, constants)
    return GreensTrace(value=prop + evan, z=z, frequency=omega,
                       frequency_axis=FrequencyAxis.REAL)
