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
above, which is anchored by Gamma(free space) = Gamma0).  The mirror limit
is tested: with s = 1e15 at every frequency, ground_shift at d = 1 nm reads
the law within k0 d (tests/test_interaction.py,
test_near_perfect_mirror_gives_the_mirror_law).

The semi-infinite u integral is evaluated with the substitution
u = w0 tan(theta) and adaptive refinement.  With t = tan(theta) and
Tr G(d, d, iu) = (u/c) T(d u/c), the weight u^2/(w0^2 + u^2) = sin^2(theta)
and du = w0 dtheta/cos^2(theta) combine to dw_g = Gamma0 Int t^3 T dtheta.
Each pass of the outer refinement evaluates sigma(iu) and the inner
kernel for all of its nodes at once, as the rows of one inner refinement;
the first pass carries the first two outer levels (288 nodes at the
operating point), and the inner rows, too, run their first two levels in
one pass.  Both levels stop at quadrature.RTOL.
Its panel edges read only d and w0: 0, and u_max = 40 c/d, past which
the kernel's e^{-2 chi zb} leaves nothing, then u_max divided by
_EDGE_RATIO again and again until it is at most _EDGE_FLOOR min(w0, c/2d),
the smaller of the two scales the sheet does not set (t = 1 in the weight,
zb = 1/2 in the kernel).  No edge names a scale of the sheet (2 mu,
gamma_g, the r_p knee pi alpha c/(2d)): each panel is refined on its own
(quadrature.integrate_refined), so a knee costs bisections only in the
panel that holds it.  The operating point takes four panels and 288 outer
nodes.

The transition gradient g = d(delta_omega)/dd is analytic: d enters only
through the exponentials of the Green's-function kernels, so each integrand
carries its d-derivative as a second component and one pass gives the
shifts, the rates and g (interaction_and_gradient).  Every caller runs that
pass, decay_rates and scattering_rate_map too: there is no value-only path,
so a shift reads the same whichever function returned it.
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
from .quadrature import (NumericsError, QuadratureError, RTOL,  # noqa: F401
                         integrate_refined)

#: ratio of successive outer panel edges in u (module docstring)
_EDGE_RATIO = 64.0
#: the lowest nonzero edge lies at or below this fraction of min(w0, c/2d)
_EDGE_FLOOR = 0.03


@dataclass(frozen=True)
class InteractionResult:
    """Shifts and decay rates of the emitter at distance d (all rad/s)."""

    delta_g: float
    delta_e: float
    gamma_rad: float
    gamma_nonrad: float

    @property
    def delta_omega(self) -> float:
        """Transition shift delta_e - delta_g."""
        return self.delta_e - self.delta_g

    @property
    def gamma(self) -> float:
        """Total decay rate gamma_rad + gamma_nonrad."""
        return self.gamma_rad + self.gamma_nonrad


@dataclass(frozen=True)
class CouplingGradient:
    """d(delta_omega)/dd with the quadrature's error estimate."""

    g_value: float          # rad/s per m (signed)
    error_estimate: float   # rad/s per m


def ground_shift(d: float, e: EmitterParams, g: GrapheneParams):
    """Ground-state Casimir-Polder shift dw_g(d) in rad/s (negative) and its
    slope: (value, error estimate), each the array [dw_g, d dw_g/dd].

    A refinement that fails raises QuadratureError naming its integral and
    the point (d, mu/hbar w0, w0/gamma_g).
    """
    if not 0.0 < d < math.inf:
        raise ValueError("d must be positive and finite")
    w0 = e.omega0
    c = CONSTANTS.c
    part = "outer frequency integral"   # where a QuadratureError comes from

    def integrand(theta):
        nonlocal part
        t = np.tan(theta)
        u = w0 * t
        s = _sigma_ec(FrequencyAxis.IMAG, u, g)
        part = "inner imaginary-axis rows"
        out = t * t * t * _trace_imag_scaled(d * u / c, s)
        part = "outer frequency integral"
        out[1] *= u / c                               # d zb / dd = u / c
        return out

    u_edges = [40.0 * c / d]
    while u_edges[-1] > _EDGE_FLOOR * min(w0, c / (2.0 * d)):
        u_edges.append(u_edges[-1] / _EDGE_RATIO)
    theta_edges = [0.0, *(math.atan(u / w0) for u in reversed(u_edges))]
    try:
        val, err = integrate_refined(integrand, theta_edges, rtol=RTOL)
    except QuadratureError as exc:
        raise QuadratureError(
            f"{exc.reason} in the {part} of the ground shift at d = {d:.6g} m,"
            f" mu = {g.mu / w0:.6g} hbar*omega0, omega0/gamma_g = "
            f"{w0 / g.gamma_g:.6g}", exc.residual) from exc
    return e.gamma0 * val, e.gamma0 * err


def interaction_and_gradient(d: float, e: EmitterParams, g: GrapheneParams):
    """(InteractionResult, CouplingGradient) at distance d from one pass.

    Gamma_rad keeps the free-space Gamma0 plus the propagating-sector
    interference; Gamma_nonrad is the evanescent sector (plasmons and
    absorption), and Gamma is their sum by construction.  Every field is a
    Python float.  The error estimate is the ground-shift quadrature's for
    the derivative; the real-axis parts are closed forms.
    """
    (dg, dg_slope), (_, err) = ground_shift(d, e, g)  # first: checks d
    prop, evan = trace_green_real_parts(d, e.omega0, g)
    resonant = e.gamma0 * math.pi * CONSTANTS.c / e.omega0
    dg, prop0, evan0 = float(dg), complex(prop[0]), complex(evan[0])
    ir = InteractionResult(
        delta_g=dg, delta_e=-dg - resonant * (prop0 + evan0).real,
        gamma_rad=e.gamma0 + 2.0 * resonant * prop0.imag,
        gamma_nonrad=2.0 * resonant * evan0.imag)
    slope = float(-2.0 * dg_slope - resonant * (prop[1] + evan[1]).real)
    return ir, CouplingGradient(g_value=slope,
                                error_estimate=2.0 * float(err))


def decay_rates(d: float, e: EmitterParams,
                g: GrapheneParams) -> InteractionResult:
    """Shifts and decay channels at distance d: the InteractionResult of
    interaction_and_gradient."""
    return interaction_and_gradient(d, e, g)[0]


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


def scattering_rate_map(d: float, omega_l, s: ScenarioParams):
    """Radiative scattering rate f(d, omega_L)/f0 for weak excitation.

    f = Gamma_rad (Omega/2)^2 / ((Gamma/2)^2 + (w0 + dw - omega_L)^2),
    normalized by the free-space resonant rate f0 = Omega^2/Gamma0; the Rabi
    frequency cancels.  Shifts and rates are evaluated at the emitter
    resonance, once for all laser frequencies: omega_l may be a float,
    giving a float, or an array (a map row at one distance), giving an
    array of its shape.
    """
    omega_l = np.asarray(omega_l, dtype=float)
    if not np.all((0.0 < omega_l) & (omega_l < math.inf)):
        raise ValueError("omega_l must be positive and finite")
    ir = decay_rates(d, s.emitter, s.graphene)
    detune = s.emitter.omega0 + ir.delta_omega - omega_l
    f = (ir.gamma_rad * s.emitter.gamma0 / 4.0) \
        / ((ir.gamma / 2.0) ** 2 + detune**2)
    return f if f.ndim else float(f)
