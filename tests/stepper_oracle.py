"""First-order 8-mode stepper: an independent discretization of the
conditional dynamics, kept as an oracle for the exact engine.

The continuous measurement is discretized into steps of duration tau over
the eight modes

    (x_m, p_m, x_L, p_L, x_N, p_N, f_x, f_p)

-- the mechanical quadratures in the frame co-rotating at omega_m, one
detected light mode, one undetected scattering mode and the thermal-force
pair.  Covariances follow the convention Gamma_ij = <{dR_i, dR_j}_+> with
vacuum = identity.

One step applies the first-order-in-tau symplectic map S:

  * rotating-frame mechanical damping via gamma_R(t): for pure momentum
    damping gamma_R = gamma [[-sin^2, cos sin], [cos sin, -cos^2]] at phase
    omega_m t, for symmetric damping the isotropic -gamma/2.
  * thermal-force injection sqrt(gamma tau) with the same rotating-frame
    mixing; the input covariance is (2 n_th + 1) I for symmetric damping and
    diag(1/(2 n_th + 1), 2 n_th + 1) for momentum damping.
  * measurement back-action kappa_det sqrt(tau) (-sin, cos) p_L_in and the
    same structure with kappa_n for the undetected channel.
  * the signal map
      x_L_out = kappa_det sqrt(tau) (cos x_m + sin p_m)
                + (1 - 2 nu) x_L_in - 2 sqrt(nu (1 - nu)) x_N_in
    and the two-channel reflection acting identically on the p quadratures,
    with the detected share nu = kappa_det^2 / (kappa_det^2 + kappa_n^2) of
    the scattering.

After each step the light mode is measured: a homodyne detection of x_L is
the r -> infinity limit of projecting onto a squeezed state with covariance
diag(1/r, r), implemented at finite r = 1e12 via

    cov_m' = cov_m - C (cov_L + diag(1/r, r))^-1 C^T.

Fresh vacuum/thermal input blocks are installed every step, which implements
the white-noise delta commutators of the continuous model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from casimir_sense.dynamics import PhysicalityError, StepConfig, Trajectory

HOMODYNE_R = 1e12
#: max allowed tau * rate product (step preconditions)
_TAU_MARGIN = 1e-2


@dataclass(frozen=True)
class ConditionalState:
    """2x2 mechanical covariance block with its time stamp and frame tag."""

    cov_m: np.ndarray
    t: float
    frame: str = "rotating"


def lab_frame(state: ConditionalState, omega_m: float) -> ConditionalState:
    """Undo the co-rotating transform at the state's own time stamp.

    The rotating quadratures are (x~, p~) = R(omega_m t) (x, p) with
    R = [[cos, -sin], [sin, cos]], so the lab covariance is R^T cov R.
    """
    if state.frame != "rotating":
        raise ValueError("state is already in the lab frame")
    c, s = math.cos(omega_m * state.t), math.sin(omega_m * state.t)
    rot = np.array([[c, -s], [s, c]])
    return ConditionalState(cov_m=rot.T @ state.cov_m @ rot, t=state.t,
                            frame="lab")


@dataclass(frozen=True)
class NoiseSpec:
    """Input covariance of (x_L, p_L, x_N, p_N, f_x, f_p) for one step."""

    cov_in: np.ndarray

    @classmethod
    def for_damping(cls, cfg: StepConfig) -> "NoiseSpec":
        cov = np.eye(6)
        if cfg.damping == "symmetric":
            cov[4, 4] = cov[5, 5] = 2.0 * cfg.n_th + 1.0
        else:
            cov[4, 4] = 1.0 / (2.0 * cfg.n_th + 1.0)
            cov[5, 5] = 2.0 * cfg.n_th + 1.0
        return cls(cov_in=cov)


@dataclass(frozen=True)
class StepOperator:
    """8x8 one-step map over (x_m, p_m, x_L, p_L, x_N, p_N, f_x, f_p)."""

    S: np.ndarray
    tau: float
    t: float


def _rotating_damping(cfg: StepConfig, t: float) -> np.ndarray:
    if cfg.damping == "symmetric":
        return -0.5 * cfg.gamma * np.eye(2)
    c, s = math.cos(cfg.omega_m * t), math.sin(cfg.omega_m * t)
    return cfg.gamma * np.array([[-s * s, c * s], [c * s, -c * c]])


def build_step(t: float, tau: float, cfg: StepConfig) -> StepOperator:
    """One-step matrix at time t; raises if tau violates its preconditions."""
    kd, kn = cfg.kappa_det, cfg.kappa_n
    back_action = kd * kd + kn * kn
    for rate in (cfg.omega_m, back_action, cfg.gamma):
        if tau * rate >= _TAU_MARGIN:
            raise ValueError(
                f"tau = {tau:.3e} too large: tau * rate = {tau * rate:.3e} "
                f">= {_TAU_MARGIN}")
    c, s = math.cos(cfg.omega_m * t), math.sin(cfg.omega_m * t)
    st = math.sqrt(tau)
    sg = math.sqrt(cfg.gamma * tau)
    S = np.eye(8)
    S[:2, :2] += tau * _rotating_damping(cfg, t)
    # back-action on the mechanics from the p quadratures of both channels
    S[0, 3], S[1, 3] = -kd * st * s, kd * st * c
    S[0, 5], S[1, 5] = -kn * st * s, kn * st * c
    # thermal force with rotating-frame mixing
    S[0, 6], S[0, 7] = sg * c, -sg * s
    S[1, 6], S[1, 7] = sg * s, sg * c
    # light / undetected channel: signal write-out plus two-port reflection
    if back_action > 0.0:
        nu = kd * kd / back_action
        rho_l, rho_n = 1.0 - 2.0 * nu, 2.0 * nu - 1.0
        x_mix = 2.0 * math.sqrt(nu * (1.0 - nu))
    else:
        rho_l, rho_n, x_mix = 1.0, 1.0, 0.0
    S[2, 0], S[2, 1] = kd * st * c, kd * st * s
    S[2, 2], S[2, 4] = rho_l, -x_mix
    S[3, 3], S[3, 5] = rho_l, -x_mix
    S[4, 0], S[4, 1] = kn * st * c, kn * st * s
    S[4, 4], S[4, 2] = rho_n, -x_mix
    S[5, 5], S[5, 3] = rho_n, -x_mix
    return StepOperator(S=S, tau=tau, t=t)


def measurement_update(state: ConditionalState, joint: np.ndarray,
                       r: float = HOMODYNE_R) -> ConditionalState:
    """Condition the mechanics on a homodyne measurement of x_L.

    ``joint`` is the 4x4 mechanics (+) light covariance after the step; the
    projector covariance diag(1/r, r) squeezes x_L, with homodyne detection
    recovered as r -> infinity.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    cov_m = joint[:2, :2]
    cov_l = joint[2:4, 2:4]
    coh = joint[:2, 2:4]
    proj = np.array([[1.0 / r, 0.0], [0.0, r]])
    updated = cov_m - coh @ np.linalg.solve(cov_l + proj, coh.T)
    updated = 0.5 * (updated + updated.T)
    return replace(state, cov_m=updated)


def simulate_stepper(cfg: StepConfig, t_end: float, tau: float,
                     initial_cov: np.ndarray | None = None,
                     r: float = HOMODYNE_R, record_every: int | None = None,
                     measure: bool = True,
                     physical_tol: float = 1e-9) -> Trajectory:
    """Propagate the conditional covariance from a thermal initial state.

    Alternates covariance propagation cov -> S cov S^T (with fresh input
    blocks) and the homodyne update; records every ``record_every`` steps,
    labelled on the record grid of ``simulate_conditional``.
    ``measure=False`` skips all measurement updates (unconditional dynamics,
    back-action still present).  Aborts with PhysicalityError if a recorded
    covariance violates det >= 1 - physical_tol.
    """
    rate = max(cfg.omega_m, cfg.gamma * (2.0 * cfg.n_th + 1.0),
               cfg.kappa_det**2 + cfg.kappa_n**2)
    if tau * rate >= _TAU_MARGIN:
        raise ValueError(f"tau = {tau:.3e} violates tau * rate < {_TAU_MARGIN}")
    n_steps = max(1, int(round(t_end / tau)))
    if record_every is None:
        record_every = max(1, n_steps // 2000)
    noise = NoiseSpec.for_damping(cfg).cov_in
    cov = (2.0 * cfg.n_th + 1.0) * np.eye(2) if initial_cov is None \
        else np.array(initial_cov, dtype=float)
    proj = np.array([[1.0 / r, 0.0], [0.0, r]])
    full = np.zeros((8, 8))
    full[2:8, 2:8] = noise
    ts, vxs, vps, vxps = [], [], [], []
    t = 0.0
    for i in range(n_steps):
        S = build_step(t, tau, cfg).S
        full[:2, :2] = cov
        full[:2, 2:] = 0.0
        full[2:, :2] = 0.0
        out = S @ full @ S.T
        if measure:
            cov_l = out[2:4, 2:4]
            coh = out[:2, 2:4]
            cov = out[:2, :2] - coh @ np.linalg.solve(cov_l + proj, coh.T)
        else:
            cov = out[:2, :2]
        cov = 0.5 * (cov + cov.T)
        t += tau
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
            label = n_steps * tau if i == n_steps - 1 \
                else (len(ts) + 1) * (record_every * tau)
            if det < 1.0 - physical_tol:
                raise PhysicalityError(label, det)
            ts.append(label)
            vxs.append(cov[0, 0])
            vps.append(cov[1, 1])
            vxps.append(cov[0, 1])
    return Trajectory(t=np.array(ts), vx=np.array(vxs), vp=np.array(vps),
                      vxp=np.array(vxps))
