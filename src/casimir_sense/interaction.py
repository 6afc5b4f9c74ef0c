"""Casimir-Polder level shifts, decay rates and the motion-coupling gradient.

All quantities derive from the reflected Green's-function trace:

    ground shift      dw_g = (c Gamma0 / w0^2) Int_0^inf du u^2/(w0^2+u^2)
                                                  Tr G(d, d, iu)
    excited shift     dw_e = -dw_g - (Gamma0 pi c / w0) Re Tr G(d, d, w0)
    total decay       Gamma = Gamma0 + (2 Gamma0 pi c / w0) Im Tr G(d, d, w0)

with the radiative/non-radiative split of Gamma by the light-line partition
of the k_par integral (propagating vs evanescent).

The ground-shift prefactor here is c Gamma0/w0^2, i.e. the standard isotropic
two-level result (it reproduces the textbook -Gamma0/16 (k0 d)^-3 perfect-
mirror limit and is the only choice consistent with the decay-rate formula
above, which is anchored by Gamma(free space) = Gamma0).

The semi-infinite u integral is evaluated with the substitution
u = w0 tan(theta) and adaptive refinement.  With t = tan(theta) and
Tr G(d, d, iu) = (u/c) T(d u/c), the weight u^2/(w0^2 + u^2) = sin^2(theta)
and du = w0 dtheta/cos^2(theta) combine to dw_g = Gamma0 Int t^3 T dtheta.
Each outer level evaluates sigma(iu) and the inner kernel for all of its
nodes at once, as the rows of one inner refinement; both levels stop at
quadrature.RTOL.
Its panel edges sit at the knees of the integrand: the interband edge 2 mu,
the kernel's scales c/2d and 4c/d, the intraband loss gamma_g, and the
frequency

    u_k = pi alpha c / (2d)

where r_p saturates.  Under the kernel's weight e^{-2 chi zb}, chi is of
order 1/zb, so r_p = chi s/(chi s + 2) turns over where
s = 2 zb = 2 u d/c: a sheet at its interband floor s = pi alpha (mu = 0,
or u > 2 mu, where sigma(iu)/(eps0 c) lies within 14% of it) reflects like
a mirror in r_p below u_k and fades above it.  u_k is an edge only where
it lies above 2 mu, since below the interband edge the Drude term sets s.

w0 is no knee: the weight t^3 is smooth through theta = pi/4.  It is an
edge only where u_k lies above it, d < d* = alpha lambda0/4 (3.65 nm at
lambda0 = 2 um), because there it splits the long panel that ends at u_k;
above d* it falls inside a panel that needs no split.  Dropping it at every
d costs nodes below d* (840 against 432 at mu = 1e-3 hbar w0, 2 nm).

gamma_g, the width of the Drude term 4 alpha mu/(u + gamma_g) of s, is an
edge only where the integrand can show that knee; an undoped sheet has no
Drude term.  Below c/2d the integrand is flat in u up to the factor r_p,
whose mean under the kernel's weight is 1 - 2 zb/s to first order, so the
knee enters through 1/s.  Above the interband edge (gamma_g >= 2 mu) the
Drude term is a bump on the floor, and s has a zero within about gamma_g
of u = 0, close against the long panel above 2 mu: the edge stays.  Below
it the Drude term makes 1/s ~ (u + gamma_g)/(4 alpha mu) smooth across the
knee, and the zeros of s lie about mu away, as far as the panel [0, 2 mu]
is long.  The knee then shows only where r_p itself bends: as
s(i gamma_g) >= (1 + pi/2) alpha for every mu > 0 (equality at
mu = gamma_g/2), its dip 2 zb/s there is at most
2 gamma_g d/(c (1 + pi/2) alpha), and the edge stays where that bound
exceeds 5% (gamma_g d/c > 4.7e-4: large d or a lossy sheet).  At the
operating point (mu = 0.8 hbar w0, 18 nm, w0/gamma_g = 1e3) a gamma_g edge
adds 72 outer nodes, each a full inner refinement row, on an integrand flat
to 1e-5; without it and w0 the integral takes 288.

The transition gradient g = d(delta_omega)/dd is analytic: d enters only
through the exponentials of the Green's-function kernels, so each integrand
carries its d-derivative as a second component and one pass gives the
shifts, the rates and g (interaction_and_gradient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .graphene import _sigma_ec, FrequencyAxis
from .greens import _trace_imag_scaled, trace_green_real_parts
from .params import EmitterParams, GrapheneParams, ScenarioParams
# perfbench/workloads.py imports NumericsError from this module
from .quadrature import (NumericsError, RTOL, clip_edges,  # noqa: F401
                         integrate_refined)

#: gamma_g d / c above which the Drude knee is an edge even below 2 mu:
#: there r_p may dip by more than 5% at the knee (see the module docstring)
_DRUDE_KNEE_ZB = 0.05 * (1.0 + 0.5 * math.pi) * CONSTANTS.alpha / 2.0


@dataclass(frozen=True)
class InteractionResult:
    """Shifts and decay rates of the emitter at distance d (all rad/s)."""

    delta_g: float
    delta_e: float
    delta_omega: float      # delta_e - delta_g
    gamma: float
    gamma_rad: float
    gamma_nonrad: float


@dataclass(frozen=True)
class CouplingGradient:
    """d(delta_omega)/dd with the quadrature's error estimate."""

    g_value: float          # rad/s per m (signed)
    error_estimate: float   # rad/s per m


def ground_shift(d: float, e: EmitterParams, g: GrapheneParams,
                 gradient: bool = False):
    """Ground-state Casimir-Polder shift dw_g(d) in rad/s (negative).

    With gradient: (value, error estimate), each the array [dw_g, d dw_g/dd].
    """
    if not 0.0 < d < math.inf:
        raise ValueError("d must be positive and finite")
    if g.sigma_zero:
        return (np.zeros(2), np.zeros(2)) if gradient else 0.0
    w0 = e.omega0
    c = CONSTANTS.c

    def integrand(theta):
        t = np.tan(theta)
        u = w0 * t
        s = _sigma_ec(FrequencyAxis.IMAG, u, g)
        out = t * t * t * _trace_imag_scaled(d * u / c, s, gradient=gradient)
        if gradient:
            out[1] *= u / c                           # d zb / dd = u / c
        return out

    # knees of the integrand: interband edge, kernel, intraband loss where
    # the kernel sees it, and where r_p saturates.  w0 is no knee; it is an
    # edge only below d = alpha lambda0/4, where it splits the long panel
    # ending at u_knee (module docstring).  288 nodes at the operating point
    u_edges = [2.0 * g.mu, c / (2.0 * d), 4.0 * c / d]
    if g.mu > 0.0 and (g.gamma_g >= 2.0 * g.mu
                       or g.gamma_g * d / c > _DRUDE_KNEE_ZB):
        u_edges.append(g.gamma_g)
    u_knee = math.pi * CONSTANTS.alpha * c / (2.0 * d)
    if u_knee > 2.0 * g.mu:
        u_edges.append(u_knee)
    if u_knee > w0:
        u_edges.append(w0)
    u_max = 40.0 * c / d
    theta_edges = clip_edges([math.atan(u / w0) for u in u_edges if u > 0],
                             0.0, math.atan(u_max / w0))
    val, err = integrate_refined(integrand, theta_edges, rtol=RTOL)
    if gradient:
        return e.gamma0 * val, e.gamma0 * err
    return e.gamma0 * float(val)


def _result(e: EmitterParams, dg: float, prop: complex,
            evan: complex) -> InteractionResult:
    """Shifts and rates from dw_g and the two real-axis trace parts."""
    scale = 2.0 * e.gamma0 * math.pi * CONSTANTS.c / e.omega0
    gamma_rad = e.gamma0 + scale * prop.imag
    gamma_nonrad = scale * evan.imag
    de = -dg - 0.5 * scale * (prop + evan).real
    return InteractionResult(
        delta_g=dg, delta_e=de, delta_omega=de - dg,
        gamma=gamma_rad + gamma_nonrad,
        gamma_rad=gamma_rad, gamma_nonrad=gamma_nonrad,
    )


def decay_rates(d: float, e: EmitterParams,
                g: GrapheneParams) -> InteractionResult:
    """Full interaction result at distance d (shifts and decay channels).

    Gamma_rad keeps the free-space Gamma0 plus the propagating-sector
    interference; Gamma_nonrad is the evanescent sector (plasmons and
    absorption).  Gamma is their sum by construction.
    """
    dg = ground_shift(d, e, g)              # first: it checks d by name
    prop, evan = trace_green_real_parts(d, e.omega0, g)
    return _result(e, dg, prop[0], evan[0])


def interaction_and_gradient(d: float, e: EmitterParams, g: GrapheneParams):
    """(InteractionResult, CouplingGradient) at distance d from one pass.

    The error estimate is the ground-shift quadrature's for the derivative;
    the real-axis parts are closed forms.
    """
    (dg, dg_slope), (_, err) = ground_shift(d, e, g, gradient=True)
    prop, evan = trace_green_real_parts(d, e.omega0, g)
    resonant = e.gamma0 * math.pi * CONSTANTS.c / e.omega0
    slope = -2.0 * dg_slope - resonant * (prop[1] + evan[1]).real
    return (_result(e, dg, prop[0], evan[0]),
            CouplingGradient(g_value=slope, error_estimate=2.0 * err))


def excited_shift(d: float, e: EmitterParams, g: GrapheneParams) -> float:
    """Excited-state shift dw_e(d) = -dw_g - (Gamma0 pi c/w0) Re Tr G(w0)."""
    return decay_rates(d, e, g).delta_e


def transition_shift(d: float, e: EmitterParams, g: GrapheneParams) -> float:
    """Transition shift delta_omega(d) = dw_e - dw_g in rad/s."""
    return decay_rates(d, e, g).delta_omega


def transition_gradient(d: float, e: EmitterParams,
                        g: GrapheneParams) -> CouplingGradient:
    """g = d(delta_omega)/dd, from the one-pass interaction_and_gradient."""
    return interaction_and_gradient(d, e, g)[1]


def scattering_rate_map(d: float, omega_l: float, s: ScenarioParams) -> float:
    """Radiative scattering rate f(d, omega_L)/f0 for weak excitation.

    f = Gamma_rad (Omega/2)^2 / ((Gamma/2)^2 + (w0 + dw - omega_L)^2),
    normalized by the free-space resonant rate f0 = Omega^2/Gamma0; the Rabi
    frequency cancels.  Shifts and rates are evaluated at the emitter
    resonance.
    """
    if not 0.0 < omega_l < math.inf:
        raise ValueError("omega_l must be positive and finite")
    ir = decay_rates(d, s.emitter, s.graphene)
    detune = s.emitter.omega0 + ir.delta_omega - omega_l
    return (ir.gamma_rad * s.emitter.gamma0 / 4.0) \
        / ((ir.gamma / 2.0) ** 2 + detune**2)
