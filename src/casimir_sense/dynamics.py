"""Conditional Gaussian dynamics of the monitored membrane.

The mechanical covariance V follows the convention
Gamma_ij = <{dR_i, dR_j}_+> with vacuum = identity, so squeezing means
V_x < 1 and physical states satisfy det V >= 1.  Under continuous homodyne
monitoring of the scattered light it obeys, in the lab frame, the
conditional Riccati equation

    dV/dt = A V + V A^T + D - kappa_det^2 V e_x e_x^T V

whose coefficients are all constant:

  * the drift A = [[0, omega_m], [-omega_m, -gamma]] for pure momentum
    damping and [[-gamma/2, omega_m], [-omega_m, -gamma/2]] for symmetric
    damping;
  * the diffusion D = gamma N + (kappa_det^2 + kappa_n^2) e_p e_p^T: the
    thermal force, whose input covariance N is (2 n_th + 1) I for symmetric
    damping and diag(1/(2 n_th + 1), 2 n_th + 1) for momentum damping (the
    extra x-noise keeps the momentum-damping model completely positive),
    plus the back-action of the detected and the undetected scattering;
  * the conditioning on x at the information rate
    kappa_det = 2 gbar_m sqrt(epsilon Gamma_det)/Gamma.

Writing V = X Y^-1 makes the equation linear,
d/dt [X; Y] = H [X; Y] with the Hamiltonian matrix
H = [[A, D], [kappa_det^2 e_x e_x^T, -A^T]], so over an interval dt the
covariance follows exactly the Mobius map

    V -> (P11 V + P12) (P21 V + P22)^-1,    P = exp(H dt)

(Davison & Maki, IEEE TAC 18, 71 (1973); Wiseman & Milburn, Quantum
Measurement and Control, ch. 6; Doherty & Jacobs, PRA 60, 2700 (1999)).
The map restarts from V at every record and the interval is split where
a bound on |eigenvalue| * dt of H exceeds one, so the growing and decaying
solutions of H never separate far enough to lose digits.

Results are reported in the frame co-rotating at omega_m,
(x~, p~) = R(omega_m t) (x, p) with R = [[cos, -sin], [sin, cos]].
Conditional covariances are outcome independent, so no measurement record
is sampled.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .measurement import evaluate_coupling
from .params import ScenarioParams

_KINDS = ("symmetric", "momentum")
#: largest (bound on |eigenvalue of H|) * dt one propagator spans: beyond it
#: the growing and decaying solutions of H separate far enough to cost digits
_MAX_EXPONENT = 1.0
#: steps per block when summing record time stamps
_STAMP_BLOCK = 4096


class PhysicalityError(RuntimeError):
    """Conditional covariance violated det >= 1 beyond tolerance."""

    def __init__(self, t: float, det: float):
        super().__init__(f"covariance unphysical at t = {t:.6e} s "
                         f"(det = {det:.12f})")
        self.t = t
        self.det = det


@dataclass(frozen=True)
class DampingModel:
    """Mechanical damping: equal-rate on both quadratures or momentum only."""

    kind: str
    gamma: float            # rad/s

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"damping kind must be one of {_KINDS}")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")


@dataclass(frozen=True)
class ConditionalState:
    """2x2 mechanical covariance block with its time stamp and frame tag."""

    cov_m: np.ndarray
    t: float
    frame: str = "rotating"


@dataclass(frozen=True)
class StepConfig:
    """Rates of the monitored-membrane dynamics.

    gamma_det = nu * Gamma is the detected scattering rate, gamma_n the
    undetected remainder, gbar_m the renormalized coupling in zero-point
    units (rad/s).  kappa_det equals the information rate kappa.
    """

    omega_m: float
    damping: DampingModel
    gbar_m: float
    epsilon: float
    gamma_det: float
    gamma_n: float

    @property
    def gamma_total(self) -> float:
        return self.gamma_det + self.gamma_n

    @property
    def kappa_det(self) -> float:
        if self.gbar_m == 0.0 or self.gamma_det == 0.0:
            return 0.0
        return 2.0 * self.gbar_m * math.sqrt(self.epsilon * self.gamma_det) \
            / self.gamma_total

    @property
    def kappa_n(self) -> float:
        if self.gbar_m == 0.0 or self.gamma_n == 0.0:
            return 0.0
        return 2.0 * self.gbar_m * math.sqrt(self.epsilon * self.gamma_n) \
            / self.gamma_total


def analytic_shorttime(vx_in: float, vp_in: float, kappa: float, t: float):
    """Ideal-measurement closed forms V_x = 1/(1/V_x_in + kappa^2 t),
    V_p = V_p_in + kappa^2 t  (gamma = 0, nu = 1, t << 1/omega_m)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return 1.0 / (1.0 / vx_in + kappa**2 * t), vp_in + kappa**2 * t


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


@dataclass
class Trajectory:
    """Recorded conditional variances (rotating frame)."""

    t: np.ndarray
    vx: np.ndarray
    vp: np.ndarray
    vxp: np.ndarray
    damping: str
    frame: str = "rotating"
    n_th: float = 0.0

    def min_vx(self):
        i = int(np.argmin(self.vx))
        return float(self.t[i]), float(self.vx[i])


def _hamiltonian(cfg: StepConfig, n_th: float, measure: bool) -> np.ndarray:
    """[[A, D], [kappa_det^2 e_x e_x^T, -A^T]] of the lab-frame Riccati
    equation; ``measure=False`` drops the conditioning term."""
    gamma, omega = cfg.damping.gamma, cfg.omega_m
    v_th = 2.0 * n_th + 1.0
    if cfg.damping.kind == "symmetric":
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


def build_step(ham: np.ndarray, dt: float) -> np.ndarray:
    """Propagator exp(ham * dt) over one interval, by scaling and squaring.

    The argument is halved until its 1-norm is below 1/2, where the
    degree-16 Taylor sum is exact to double precision.
    """
    arg = ham * dt
    squarings = max(0, math.frexp(float(np.abs(arg).sum(axis=0).max()))[1] + 1)
    arg = arg / 2.0**squarings
    term = phi = np.eye(len(arg))
    for k in range(1, 17):
        term = term @ arg / k
        phi = phi + term
    for _ in range(squarings):
        phi = phi @ phi
    return phi


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


def _record_times(tau: float, n_steps: int, record_every: int) -> np.ndarray:
    """Time stamps after steps record_every, 2 record_every, ... and n_steps,
    summed one tau at a time as a fixed-step integrator of step tau sums
    them (in blocks, so memory stays small for any tau)."""
    stamps, t = [], 0.0
    for lo in range(0, n_steps, _STAMP_BLOCK):
        n = min(_STAMP_BLOCK, n_steps - lo)
        ts = np.cumsum(np.concatenate(([t], np.full(n, tau))))  # steps lo..lo+n
        stamps.append(ts[(-lo) % record_every or record_every::record_every])
        t = ts[-1]
    if n_steps % record_every:
        stamps.append([t])
    return np.concatenate(stamps)


def simulate_conditional(cfg: StepConfig, n_th: float, t_end: float,
                         tau: float, initial_cov: np.ndarray | None = None,
                         record_every: int | None = None,
                         measure: bool = True,
                         physical_tol: float = 1e-9) -> Trajectory:
    """Propagate the conditional covariance from a thermal initial state.

    ``tau`` is the unit of the record grid only: with
    n_steps = round(t_end / tau), the covariance is recorded after every
    ``record_every`` units of tau and at n_steps * tau, the time stamps being
    summed one tau at a time.  Between records it follows the exact Mobius
    map of the module docstring, so tau sets no accuracy.
    ``measure=False`` drops the conditioning (unconditional dynamics,
    back-action still present).  Aborts with PhysicalityError at the first
    recorded covariance whose det is below 1 - physical_tol or not a number.
    """
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    n_steps = max(1, int(round(t_end / tau)))
    if record_every is None:
        record_every = max(1, n_steps // 2000)
    elif record_every < 1:
        raise ValueError("record_every must be >= 1")
    cov = (2.0 * n_th + 1.0) * np.eye(2) if initial_cov is None \
        else np.array(initial_cov, dtype=float)
    ham = _hamiltonian(cfg, n_th, measure)
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
    t = _record_times(tau, n_steps, record_every)
    det = vx * vp - vxp * vxp
    bad = np.flatnonzero(~(det >= 1.0 - physical_tol))
    if bad.size:
        raise PhysicalityError(float(t[bad[0]]), float(det[bad[0]]))
    # co-rotating frame R V R^T, at the times the propagation reached
    t_prop = np.append(np.arange(1, n_full + 1) * (record_every * tau),
                       [n_steps * tau] if rest else [])
    c, s = np.cos(cfg.omega_m * t_prop), np.sin(cfg.omega_m * t_prop)
    cc, ss, cs = c * c, s * s, c * s
    return Trajectory(t=t, vx=cc * vx - 2.0 * cs * vxp + ss * vp,
                      vp=ss * vx + 2.0 * cs * vxp + cc * vp,
                      vxp=cs * (vx - vp) + (cc - ss) * vxp,
                      damping=cfg.damping.kind, n_th=n_th)


def step_config_for(s: ScenarioParams, damping: DampingModel | str,
                    coupling=None) -> tuple[StepConfig, float]:
    """Derive the step rates for a scenario; returns (config, n_th).

    ``coupling`` may carry a precomputed (ir, cg, CouplingResult) triple to
    avoid re-running the Casimir integrals.
    """
    if isinstance(damping, str):
        damping = DampingModel(kind=damping, gamma=s.mechanics.gamma)
    ir, cg, cr = coupling if coupling is not None else evaluate_coupling(s)
    gbar_m = cr.g_bar
    gamma_det = cr.nu * ir.gamma
    gamma_n = (1.0 - cr.nu) * ir.gamma
    cfg = StepConfig(omega_m=s.mechanics.omega_m, damping=damping,
                     gbar_m=gbar_m, epsilon=s.drive.epsilon,
                     gamma_det=gamma_det, gamma_n=gamma_n)
    return cfg, s.mechanics.n_th


def default_tau(cfg: StepConfig, n_th: float, factor: float = 5e-3) -> float:
    """Default record-grid unit: factor over the fastest rate of the
    dynamics."""
    rate = max(cfg.omega_m, cfg.damping.gamma * (2.0 * n_th + 1.0),
               cfg.kappa_det**2 + cfg.kappa_n**2)
    return factor / rate


def simulate(s: ScenarioParams, damping: DampingModel | str, t_end: float,
             tau: float | None = None, coupling=None,
             record_every: int | None = None, measure: bool = True) -> Trajectory:
    """End-to-end conditional-squeezing run for a scenario.

    Computes the surface-modified rates at s.distance, assembles the
    configuration and propagates the thermal initial state up to t_end,
    reporting it in the rotating frame.
    """
    cfg, n_th = step_config_for(s, damping, coupling)
    if tau is None:
        tau = default_tau(cfg, n_th)
    return simulate_conditional(cfg, n_th, t_end, tau,
                                record_every=record_every, measure=measure)
