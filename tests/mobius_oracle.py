"""Record-by-record Mobius map of the conditional Riccati equation: the
engine ``dynamics.simulate_conditional`` used before its closed form, kept
as an oracle for it.

Writing V = X Y^-1 makes the Riccati equation linear,
d/dt [X; Y] = H [X; Y] with H = [[A, D], [kappa_det^2 e_x e_x^T, -A^T]]
(``_hamiltonian``), so over an interval dt the covariance follows exactly

    V -> (P11 V + P12) (P21 V + P22)^-1,    P = exp(H dt).

The map restarts from V at every record, and the interval is split where a
bound on |eigenvalue| * dt of H exceeds one, so the growing and decaying
solutions of H never separate far enough to lose digits.  Every propagator
comes from ``dynamics.build_step``.  H is assembled here from the
configuration, independently of the library's coefficients; the record grid,
the physicality check and the co-rotating frame follow
``simulate_conditional``.
"""

import math
from array import array

import numpy as np

from casimir_sense.dynamics import PhysicalityError, Trajectory, build_step

#: largest (bound on |eigenvalue of H|) * dt one propagator spans: beyond it
#: the growing and decaying solutions of H separate far enough to cost digits
_MAX_EXPONENT = 1.0


def _hamiltonian(cfg, measure: bool) -> np.ndarray:
    """[[A, D], [kappa_det^2 e_x e_x^T, -A^T]] of the lab-frame Riccati
    equation; ``measure=False`` drops the conditioning term."""
    gamma, omega = cfg.gamma, cfg.omega_m
    v_th = 2.0 * cfg.n_th + 1.0
    if cfg.damping == "symmetric":
        drift = np.array([[-0.5 * gamma, omega], [-omega, -0.5 * gamma]])
        diffusion = np.diag([gamma * v_th, gamma * v_th])
    else:
        drift = np.array([[0.0, omega], [-omega, -gamma]])
        diffusion = np.diag([gamma / v_th, gamma * v_th])
    diffusion[1, 1] += cfg.kappa_det**2 + cfg.kappa_n**2
    ham = np.zeros((4, 4))
    ham[:2, :2] = drift
    ham[:2, 2:] = diffusion
    ham[2:, 2:] = -drift.T
    if measure:
        ham[2, 0] = cfg.kappa_det**2
    return ham


def _growth_bound(ham: np.ndarray) -> float:
    """Upper bound on the spectral radius of H: the similarity
    diag(1, 1, s, s) that balances D against C leaves 1-norm
    ||A|| + sqrt(||D|| ||C||).  Cheaper than an eigenvalue solve, whose
    LAPACK set-up alone grows the process by half a megabyte."""
    def norm(block):
        return float(np.abs(block).sum(axis=0).max())

    return norm(ham[:2, :2]) + math.sqrt(norm(ham[:2, 2:]) * norm(ham[2:, :2]))


def _mobius(phi: np.ndarray, cov: tuple[float, float, float], records: int,
            sub: int, out: array) -> tuple[float, float, float]:
    """Apply V -> (P11 V + P12)(P21 V + P22)^-1 ``sub`` times per record for
    ``records`` records, appending each recorded (V_x, V_xp, V_p) to out."""
    (a11, a12, b11, b12), (a21, a22, b21, b22), \
        (c11, c12, d11, d12), (c21, c22, d21, d22) = phi.tolist()
    vx, vxp, vp = cov
    for _ in range(records):
        for _ in range(sub):
            x11 = a11 * vx + a12 * vxp + b11
            x12 = a11 * vxp + a12 * vp + b12
            x21 = a21 * vx + a22 * vxp + b21
            x22 = a21 * vxp + a22 * vp + b22
            y11 = c11 * vx + c12 * vxp + d11
            y12 = c11 * vxp + c12 * vp + d12
            y21 = c21 * vx + c22 * vxp + d21
            y22 = c21 * vxp + c22 * vp + d22
            det = y11 * y22 - y12 * y21
            vx = (x11 * y22 - x12 * y21) / det
            vp = (x22 * y11 - x21 * y12) / det
            vxp = 0.5 * (x12 * y11 - x11 * y12 + x21 * y22 - x22 * y21) / det
        out.extend((vx, vxp, vp))
    return vx, vxp, vp


def simulate_mobius(cfg, t_end: float, tau: float, initial_cov=None,
                    record_every: int | None = None, measure: bool = True,
                    physical_tol: float = 1e-9) -> Trajectory:
    """``simulate_conditional`` by the record-by-record Mobius map."""
    n_steps = max(1, int(round(t_end / tau)))
    if record_every is None:
        record_every = max(1, n_steps // 2000)
    cov = (2.0 * cfg.n_th + 1.0) * np.eye(2) if initial_cov is None \
        else np.array(initial_cov, dtype=float)
    ham = _hamiltonian(cfg, measure)
    rate = _growth_bound(ham)
    n_full, rest = divmod(n_steps, record_every)
    state = (float(cov[0, 0]), 0.5 * float(cov[0, 1] + cov[1, 0]),
             float(cov[1, 1]))
    lab = array("d")
    for records, steps in ((n_full, record_every), (int(rest > 0), rest)):
        if records:
            dt = steps * tau
            sub = max(1, math.ceil(rate * dt / _MAX_EXPONENT))
            state = _mobius(build_step(ham, dt / sub), state, records, sub,
                            lab)
    vx, vxp, vp = np.frombuffer(lab).reshape(-1, 3).T
    # the record grid of simulate_conditional: the last record at n_steps tau
    t_prop = np.arange(1, n_full + (rest > 0) + 1) * (record_every * tau)
    t_prop[-1] = n_steps * tau
    det = vx * vp - vxp * vxp
    bad = np.flatnonzero(~(det >= 1.0 - physical_tol))
    if bad.size:
        raise PhysicalityError(float(t_prop[bad[0]]), float(det[bad[0]]))
    # co-rotating frame R V R^T
    c, s = np.cos(cfg.omega_m * t_prop), np.sin(cfg.omega_m * t_prop)
    cc, ss, cs = c * c, s * s, c * s
    return Trajectory(t=t_prop, vx=cc * vx - 2.0 * cs * vxp + ss * vp,
                      vp=ss * vx + 2.0 * cs * vxp + cc * vp,
                      vxp=cs * (vx - vp) + (cc - ss) * vxp)
