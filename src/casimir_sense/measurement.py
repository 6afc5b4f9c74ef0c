"""Emitter steady state, renormalized coupling and the information rate kappa.

In the weak-driving limit the emitter steady state is pure to first order in
the saturation parameter epsilon, with <sigma_z> = -1 + epsilon/2.  The
linearized emitter mediates a QND coupling between the membrane position and
the measured light quadrature at rate

    kappa = 2 gbar sqrt(epsilon nu / Gamma),      gbar = sqrt(2) |g| (1 - 3 epsilon/8),

where nu = eta_det * Gamma_rad/Gamma is the total detection efficiency and
Gamma is the surface-modified decay rate at the operating distance.  In
zero-point units (positions in x_zpm) the squeezing figure of merit is
kappa^2 x_zpm^2 / omega_m.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

# decay_rates and transition_gradient stay bound for perfbench/tracing.py
from .interaction import (CouplingGradient, InteractionResult, decay_rates,
                          interaction_and_gradient, transition_gradient)
from .params import ScenarioParams


@dataclass(frozen=True)
class EmitterSteadyState:
    """First-order steady state of the driven emitter."""

    sz_inf: float
    alpha_bar: float
    beta_bar: float
    epsilon: float


@dataclass(frozen=True)
class CouplingResult:
    """Motion-to-light coupling figures at one operating point.

    g_bar and kappa are in zero-point units: g_bar = sqrt(2)(1-3eps/8)|g|x_zpm
    in rad/s per x_zpm, kappa in 1/sqrt(s) per x_zpm.  kappa_inv_si is the
    displacement sensitivity in m/sqrt(Hz) (inf when nu = 0).  merit uses the
    actual nu; merit_ideal sets nu = 1 (both are exposed since the quoted
    figure of merit is the ideal-detection one).
    """

    g_bar: float
    nu: float
    kappa: float
    kappa_inv_si: float
    merit: float
    merit_ideal: float


def steady_state(epsilon: float, rabi: float | None = None,
                 detuning: float | None = None,
                 gamma: float | None = None) -> EmitterSteadyState:
    """Steady state of the driven two-level emitter, first order in epsilon.

    Without (rabi, detuning) the rotation angle is unobservable downstream
    and the convention detuning = 0 is used, so alpha_bar = sqrt(epsilon),
    beta_bar = 0.  With them (gamma required, the surface-modified total
    rate), alpha_bar and beta_bar are reported with their physical ratio and
    normalized so alpha_bar^2 + beta_bar^2 = epsilon; a warning is issued if
    the implied saturation parameter disagrees with the epsilon given.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    sz = -1.0 + epsilon / 2.0
    if rabi is None and detuning is None:
        return EmitterSteadyState(sz_inf=sz, alpha_bar=math.sqrt(epsilon),
                                  beta_bar=0.0, epsilon=epsilon)
    if rabi is None or detuning is None or gamma is None:
        raise ValueError("rabi, detuning and gamma must be given together")
    denom = detuning**2 + gamma**2 / 4.0
    alpha = rabi * (gamma / 2.0) / denom
    beta = rabi * detuning / denom
    implied = rabi**2 / denom
    if epsilon > 0 and abs(implied - epsilon) > 1e-6 * epsilon:
        warnings.warn(
            f"(rabi, detuning, gamma) imply epsilon = {implied:.6g}, "
            f"configured epsilon = {epsilon:.6g}; keeping the configured "
            "value and rescaling the rotation", stacklevel=2)
    norm = math.hypot(alpha, beta)
    scale = math.sqrt(epsilon) / norm if norm > 0 else 0.0
    return EmitterSteadyState(sz_inf=sz, alpha_bar=alpha * scale,
                              beta_bar=beta * scale, epsilon=epsilon)


def renormalized_coupling(cg: CouplingGradient, epsilon: float) -> float:
    """gbar = sqrt(2) |g| (1 - 3 epsilon/8) in rad/s per m (magnitude).

    Only gbar^2 enters observable rates, so the sign convention of the
    gradient is dropped.
    """
    return math.sqrt(2.0) * abs(cg.g_value) * (1.0 - 3.0 * epsilon / 8.0)


def detection_efficiency(ir: InteractionResult, eta_det: float) -> float:
    """nu = eta_det * Gamma_rad / Gamma."""
    if not 0.0 <= eta_det <= 1.0:
        raise ValueError("eta_det must lie in [0, 1]")
    return eta_det * ir.gamma_rad / ir.gamma


def kappa(s: ScenarioParams, ir: InteractionResult,
          cg: CouplingGradient) -> CouplingResult:
    """Information rate and sensitivity from one scenario's interaction data."""
    eps = s.drive.epsilon
    gbar_si = renormalized_coupling(cg, eps)          # rad/s per m
    nu = detection_efficiency(ir, s.drive.eta_det)
    x_zpm = s.mechanics.x_zpm
    g_bar = gbar_si * x_zpm                           # zero-point units
    kap = 2.0 * g_bar * math.sqrt(eps * nu / ir.gamma)
    kap_ideal_sq = 4.0 * eps * g_bar**2 / ir.gamma
    kappa_inv = x_zpm / kap if kap > 0 else math.inf
    return CouplingResult(
        g_bar=g_bar, nu=nu, kappa=kap, kappa_inv_si=kappa_inv,
        merit=kap**2 / s.mechanics.omega_m,
        merit_ideal=kap_ideal_sq / s.mechanics.omega_m,
    )


def evaluate_coupling(s: ScenarioParams):
    """Full pipeline at s.distance: (InteractionResult, CouplingGradient,
    CouplingResult)."""
    ir, cg = interaction_and_gradient(s.distance, s.emitter, s.graphene,
                                      s.constants)
    return ir, cg, kappa(s, ir, cg)
