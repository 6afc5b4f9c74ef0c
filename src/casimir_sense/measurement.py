"""Renormalized coupling and the information rate kappa.

To first order in the saturation parameter epsilon the linearized emitter
mediates a QND coupling between the membrane position and the measured light
quadrature at rate

    kappa = 2 gbar sqrt(epsilon nu / Gamma),
    gbar  = sqrt(2) |g| (1 - 3 epsilon/8) x_zpm,
    nu    = eta_det Gamma_rad / Gamma,

where g = d(delta_omega)/dd is the coupling gradient (rad/s per m; only
gbar^2 enters observable rates, so its sign is dropped), nu is the total
detection efficiency and Gamma is the surface-modified decay rate at the
operating distance.  In zero-point units (positions in x_zpm) gbar is in
rad/s, kappa in 1/sqrt(s), and the squeezing figure of merit is
kappa^2 / omega_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# decay_rates and transition_gradient stay bound for perfbench/tracing.py
from .interaction import (CouplingGradient, InteractionResult, decay_rates,
                          interaction_and_gradient, transition_gradient)
from .params import ScenarioParams


@dataclass(frozen=True)
class CouplingResult:
    """Motion-to-light coupling figures at one operating point.

    g_bar and kappa are in zero-point units (module docstring): rad/s and
    1/sqrt(s) per x_zpm.  kappa_inv_si is the displacement sensitivity in
    m/sqrt(Hz) (inf when nu = 0).  merit uses the actual nu; merit_ideal
    sets nu = 1 (both are exposed since the quoted figure of merit is the
    ideal-detection one).
    """

    g_bar: float
    nu: float
    kappa: float
    kappa_inv_si: float
    merit: float
    merit_ideal: float


def _information_rate(g_bar: float, epsilon: float, share: float,
                      gamma: float) -> float:
    """2 gbar sqrt(epsilon share / Gamma): the rate at which the scattering
    channel carrying ``share`` of Gamma reports the position."""
    return 2.0 * g_bar * math.sqrt(epsilon * share / gamma)


def kappa(s: ScenarioParams, ir: InteractionResult,
          cg: CouplingGradient) -> CouplingResult:
    """Information rate and sensitivity from one scenario's interaction data."""
    eps = s.drive.epsilon
    x_zpm = s.mechanics.x_zpm
    g_bar = math.sqrt(2.0) * abs(cg.g_value) * (1.0 - 3.0 * eps / 8.0) * x_zpm
    nu = s.drive.eta_det * ir.gamma_rad / ir.gamma
    kap = _information_rate(g_bar, eps, nu, ir.gamma)
    kap_ideal = _information_rate(g_bar, eps, 1.0, ir.gamma)
    kappa_inv = x_zpm / kap if kap > 0 else math.inf
    return CouplingResult(
        g_bar=g_bar, nu=nu, kappa=kap, kappa_inv_si=kappa_inv,
        merit=kap**2 / s.mechanics.omega_m,
        merit_ideal=kap_ideal**2 / s.mechanics.omega_m,
    )


def evaluate_coupling(s: ScenarioParams):
    """Full pipeline at s.distance: (InteractionResult, CouplingGradient,
    CouplingResult)."""
    ir, cg = interaction_and_gradient(s.distance, s.emitter, s.graphene)
    return ir, cg, kappa(s, ir, cg)
