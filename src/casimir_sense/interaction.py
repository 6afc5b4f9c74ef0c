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

The semi-infinite u integral is evaluated with the substitution u = w0 tan(t)
and adaptive refinement; each outer level evaluates sigma(iu) and the inner
kernel for all of its nodes at once, as the rows of one inner refinement.
The transition gradient g = d(delta_omega)/dd is analytic: d enters only
through the exponentials of the Green's-function kernels, so each integrand
carries its d-derivative as a second component and one pass gives the
shifts, the rates and g (interaction_and_gradient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS, PhysicalConstants
from .graphene import _sigma_ec, FrequencyAxis
from .greens import _trace_imag_scaled, trace_green_real_parts
from .params import EmitterParams, GrapheneParams, ScenarioParams
from .quadrature import clip_edges, integrate_refined

#: relative tolerance of the outer (frequency) integral
_U_RTOL = 1e-8


class NumericsError(RuntimeError):
    """No longer raised; kept because perfbench/workloads.py imports it."""


@dataclass(frozen=True)
class InteractionResult:
    """Shifts and decay rates of the emitter at distance d (all rad/s)."""

    d: float
    delta_g: float
    delta_e: float
    delta_omega: float      # delta_e - delta_g
    gamma: float
    gamma_rad: float
    gamma_nonrad: float


@dataclass(frozen=True)
class CouplingGradient:
    """d(delta_omega)/dd with the quadrature's error estimate."""

    d: float
    g_value: float          # rad/s per m (signed)
    error_estimate: float   # rad/s per m


def ground_shift(d: float, e: EmitterParams, g: GrapheneParams,
                 constants: PhysicalConstants = CONSTANTS,
                 gradient: bool = False):
    """Ground-state Casimir-Polder shift dw_g(d) in rad/s (negative).

    With gradient: (value, error estimate), each the array [dw_g, d dw_g/dd].
    """
    if d <= 0:
        raise ValueError("d must be positive")
    if g.sigma_zero:
        return (np.zeros(2), np.zeros(2)) if gradient else 0.0
    w0 = e.omega0
    c = constants.c

    def integrand(theta):
        t = np.tan(theta)
        u = w0 * t
        s = _sigma_ec(FrequencyAxis.IMAG, u, g, constants).real
        out = (t / np.cos(theta) ** 2) * np.sin(theta) ** 2 \
            * _trace_imag_scaled(d * u / c, s, gradient=gradient)
        if gradient:
            out[1] *= u / c                           # d zb / dd = u / c
        return out

    # knees of the integrand: intraband loss, interband edge, weight, kernel
    u_edges = [g.gamma_g, 2.0 * g.mu, w0, c / (2.0 * d), 4.0 * c / d]
    u_max = 40.0 * c / d
    theta_edges = clip_edges([math.atan(u / w0) for u in u_edges if u > 0],
                             0.0, math.atan(u_max / w0))
    val, err = integrate_refined(integrand, theta_edges, rtol=_U_RTOL)
    if gradient:
        return e.gamma0 * val, e.gamma0 * err
    return e.gamma0 * float(val)


def _result(d: float, e: EmitterParams, constants: PhysicalConstants,
            dg: float, prop: complex, evan: complex) -> InteractionResult:
    """Shifts and rates from dw_g and the two real-axis trace parts."""
    scale = 2.0 * e.gamma0 * math.pi * constants.c / e.omega0
    gamma_rad = e.gamma0 + scale * prop.imag
    gamma_nonrad = scale * evan.imag
    de = -dg - 0.5 * scale * (prop + evan).real
    return InteractionResult(
        d=d, delta_g=dg, delta_e=de, delta_omega=de - dg,
        gamma=gamma_rad + gamma_nonrad,
        gamma_rad=gamma_rad, gamma_nonrad=gamma_nonrad,
    )


def decay_rates(d: float, e: EmitterParams, g: GrapheneParams,
                constants: PhysicalConstants = CONSTANTS) -> InteractionResult:
    """Full interaction result at distance d (shifts and decay channels).

    Gamma_rad keeps the free-space Gamma0 plus the propagating-sector
    interference; Gamma_nonrad is the evanescent sector (plasmons and
    absorption).  Gamma is their sum by construction.
    """
    return _result(d, e, constants, ground_shift(d, e, g, constants),
                   *trace_green_real_parts(d, e.omega0, g, constants))


def interaction_and_gradient(d: float, e: EmitterParams, g: GrapheneParams,
                             constants: PhysicalConstants = CONSTANTS):
    """(InteractionResult, CouplingGradient) at distance d from one pass.

    The error estimate is the ground-shift quadrature's for the derivative;
    the real-axis parts converge 100 times tighter.
    """
    (dg, dg_slope), (_, err) = ground_shift(d, e, g, constants, gradient=True)
    prop, evan = trace_green_real_parts(d, e.omega0, g, constants,
                                        gradient=True)
    resonant = e.gamma0 * math.pi * constants.c / e.omega0
    slope = -2.0 * dg_slope - resonant * (prop[1] + evan[1]).real
    return (_result(d, e, constants, dg, prop[0], evan[0]),
            CouplingGradient(d=d, g_value=slope, error_estimate=2.0 * err))


def excited_shift(d: float, e: EmitterParams, g: GrapheneParams,
                  constants: PhysicalConstants = CONSTANTS) -> float:
    """Excited-state shift dw_e(d) = -dw_g - (Gamma0 pi c/w0) Re Tr G(w0)."""
    return decay_rates(d, e, g, constants).delta_e


def transition_shift(d: float, e: EmitterParams, g: GrapheneParams,
                     constants: PhysicalConstants = CONSTANTS) -> float:
    """Transition shift delta_omega(d) = dw_e - dw_g in rad/s."""
    return decay_rates(d, e, g, constants).delta_omega


def transition_gradient(d: float, e: EmitterParams, g: GrapheneParams,
                        constants: PhysicalConstants = CONSTANTS
                        ) -> CouplingGradient:
    """g = d(delta_omega)/dd, from the one-pass interaction_and_gradient."""
    return interaction_and_gradient(d, e, g, constants)[1]


def scattering_rate_map(d: float, omega_l: float, s: ScenarioParams) -> float:
    """Radiative scattering rate f(d, omega_L)/f0 for weak excitation.

    f = Gamma_rad (Omega/2)^2 / ((Gamma/2)^2 + (w0 + dw - omega_L)^2),
    normalized by the free-space resonant rate f0 = Omega^2/Gamma0; the Rabi
    frequency cancels.  Shifts and rates are evaluated at the emitter
    resonance.
    """
    ir = decay_rates(d, s.emitter, s.graphene, s.constants)
    detune = s.emitter.omega0 + ir.delta_omega - omega_l
    return (ir.gamma_rad * s.emitter.gamma0 / 4.0) \
        / ((ir.gamma / 2.0) ** 2 + detune**2)
