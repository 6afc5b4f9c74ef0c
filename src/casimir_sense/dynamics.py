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
  * the conditioning on x at the information rate kappa_det = kappa of
    ``measurement``; kappa_n is the same rate at the undetected share
    1 - nu of the scattering.

Its solution is closed form.  With A = a I + K, a = tr(A)/2 and K^2 = b^2 I,
E = exp(A t) = f I + g K with f = e^{at} cosh(bt) and g = e^{at} sinh(bt)/b.

Unconditioned (C = kappa_det^2 e_x e_x^T = 0: nu = 0 or no coupling),
V(t) = E V(0) E^T + int_0^t E D E^T ds (Van Loan, IEEE TAC 23, 395 (1978))
= E V(0) E^T + F2 D + FG (K D + D K^T) + G2 K D K^T, and
integrating (g^2)' = 2a g^2 + 2 f g and (f g)' = 2a f g + 2 b^2 g^2 + e^{2as}
from 0 gives, with phi = int_0^t e^{2as} ds,

    G2 = int g^2 = (phi + a g^2 - f g) / (2 det A),
    FG = int f g = g^2/2 - a G2,    F2 = int f^2 = phi + b^2 G2.

No steady state enters, nor a special case for critical damping or gamma = 0;
for t small against 1/|eigenvalues of A|, where G2 cancels, its Taylor series
serves instead.

Conditioned (Davison & Maki, IEEE TAC 18, 71 (1973); Wiseman & Milburn,
Quantum Measurement and Control, ch. 6; Doherty & Jacobs, PRA 60, 2700
(1999)), with V* the stabilizing steady state of A V + V A^T + D - V C V = 0
and Abar = A - V* C, V - V* obeys a Riccati equation without a constant
term, whence

    V(t) = V* + E D0 (I + W D0)^-1 E^T,    E = exp(Abar t),
    W(t) = int_0^t E^T C E ds = Winf - E^T Winf E,    D0 = V(0) - V*,

with Abar^T Winf + Winf Abar + C = 0.  V* comes from the Newton-Kleinman
iteration from V = I (Kleinman, IEEE TAC 13, 114 (1968)), each step a
2x2 Lyapunov equation solved in closed form; for 2x2 matrices
D0 (I + W D0)^-1 = (D0 + det D0 adj W) / det(I + W D0).

Weak conditioning.  As c -> 0 V* grows without bound, so the conditioned
form cancels (V* + E D0 (I + W D0)^-1 E^T loses about tr(V*)/2 of relative
precision, or Newton-Kleinman does not converge), while the unconditioned
form becomes exact.  The difference Delta = V_u - V_c of the unconditioned
and conditioned solutions from the same V(0) obeys
dDelta/dt = A Delta + Delta A^T + c V_c e_x e_x^T V_c.  A + A^T is negative
semidefinite for both damping models and 0 <= V_c <= V_u, so
tr Delta(t) <= c t max (tr V_u)^2, and tr V_u(t) <= tr V(0) + t tr D.  With
tr V >= 2 for a physical state, the conditioning therefore moves V by at
most

    moved = c t_end (tr V(0) + t_end tr D)^2 / 2

relative over the run.  The unconditioned form serves when moved is below
one rounding unit 2^-53, or below 2^-53 tr(V*)/2, the precision the
conditioned form would lose.

Either way V is evaluated at all record times at once, in blocks, each
record labelled with the time it is evaluated at, and reported in the frame
co-rotating at omega_m, (x~, p~) = R(omega_m t) (x, p) with
R = [[cos, -sin], [sin, cos]].  Conditional covariances are outcome
independent, so no measurement record is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import _information_rate, evaluate_coupling
from .params import ScenarioParams
from .quadrature import NumericsError

_KINDS = ("symmetric", "momentum")
#: record times per block of the closed-form evaluation
_STAMP_BLOCK = 4096
#: the most records one grid may hold; a default grid holds at most 4,000
_MAX_RECORDS = 2**24
#: Newton-Kleinman steps allowed, and the relative step that ends them: the
#: iteration converges quadratically near V*, so the iterate that a step
#: below the tolerance reaches is exact to rounding
_NEWTON_STEPS = 100
_NEWTON_RTOL = 1e-13
#: where 2 (|a| + |b|) t <= _TAYLOR_RADIUS, G2 cancels and comes from its
#: Taylor series, whose _TAYLOR_TERMS terms reach 1e-17 of the sum
_TAYLOR_RADIUS = 1.0
_TAYLOR_TERMS = 20
#: one rounding unit: conditioning that moves V by less is dropped
_ROUNDING = 2.0**-53
#: a record whose det V falls below 1 - _PHYSICAL_TOL breaks uncertainty
_PHYSICAL_TOL = 1e-9


class PhysicalityError(RuntimeError):
    """Conditional covariance violated det >= 1 beyond tolerance."""

    def __init__(self, t: float, det: float):
        super().__init__(f"covariance unphysical at t = {t:.6e} s "
                         f"(det = {det:.12f})")
        self.t = t
        self.det = det


class RiccatiError(NumericsError):
    """The conditional Riccati equation has no stabilizing steady state that
    the Newton-Kleinman iteration could find."""


@dataclass(frozen=True)
class StepConfig:
    """The inputs of the conditional Riccati equation.

    damping is the kind, "symmetric" or "momentum", and gamma its rate in
    rad/s; n_th is the bath occupation, which also sets the thermal initial
    state.  kappa_det is the information rate of the detected scattering
    and kappa_n the same rate of the undetected remainder, both in
    1/sqrt(s) per x_zpm; the back-action is kappa_det^2 + kappa_n^2.  A
    record that conditions nothing has kappa_det = 0, with the whole
    back-action in kappa_n.
    """

    omega_m: float          # rad/s
    damping: str
    gamma: float            # rad/s
    n_th: float
    kappa_det: float
    kappa_n: float

    def __post_init__(self):
        if self.damping not in _KINDS:
            raise ValueError(f"damping kind must be one of {_KINDS}")
        for name in ("omega_m", "gamma", "n_th", "kappa_det", "kappa_n"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, "
                                 f"got {value}")


@dataclass
class Trajectory:
    """Recorded conditional variances (rotating frame)."""

    t: np.ndarray
    vx: np.ndarray
    vp: np.ndarray
    vxp: np.ndarray

    def min_vx(self):
        i = int(np.argmin(self.vx))
        return float(self.t[i]), float(self.vx[i])


def _coefficients(cfg: StepConfig):
    """Drift A, diffusion D = (d11, d12, d22) and conditioning strength
    c = kappa_det^2 of the lab-frame Riccati equation."""
    gamma, omega = cfg.gamma, cfg.omega_m
    v_th = 2.0 * cfg.n_th + 1.0
    if cfg.damping == "symmetric":
        drift = ((-0.5 * gamma, omega), (-omega, -0.5 * gamma))
        d11 = d22 = gamma * v_th
    else:
        drift = ((0.0, omega), (-omega, -gamma))
        d11, d22 = gamma / v_th, gamma * v_th
    diffusion = (d11, 0.0, d22 + (cfg.kappa_det**2 + cfg.kappa_n**2))
    return drift, diffusion, cfg.kappa_det**2


def build_step(ham: np.ndarray, dt: float) -> np.ndarray:
    """Propagator exp(ham * dt) over one interval, by scaling and squaring.

    The argument is halved until its 1-norm is below 1/2, where the
    degree-16 Taylor sum is exact to double precision.  The closed-form
    engine does not call it; perfbench/tracing.py counts its calls and the
    Mobius oracle in tests/ steps with it.
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


def _lyapunov(m, q):
    """Symmetric X with m X + X m^T + q = 0 for a 2x2 m with both
    eigenvalues in the left half-plane, as (x11, x12, x22) from
    q = (q11, q12, q22).  Since m adj(m) = det(m) I, the solution is
    X = -(det(m) q + adj(m) q adj(m)^T) / (2 tr(m) det(m))."""
    (m11, m12), (m21, m22) = m
    tr, det = m11 + m22, m11 * m22 - m12 * m21
    if not tr < 0.0 < det:
        raise RiccatiError(f"drift is not stable (trace {tr:.6e}, "
                           f"det {det:.6e})")
    q11, q12, q22 = q
    # rows of adj(m) q, with adj(m) = [[m22, -m12], [-m21, m11]]
    p11, p12 = m22 * q11 - m12 * q12, m22 * q12 - m12 * q22
    p21, p22 = m11 * q12 - m21 * q11, m11 * q22 - m21 * q12
    scale = -0.5 / (tr * det)
    return (scale * (det * q11 + p11 * m22 - p12 * m12),
            scale * (det * q12 + p12 * m11 - p11 * m21),
            scale * (det * q22 + p22 * m11 - p21 * m21))


def _steady_state(a, d, c: float):
    """Stabilizing solution V* of A V + V A^T + D - c V e_x e_x^T V = 0, as
    (v11, v12, v22), by Newton-Kleinman from V = I: each step solves
    (A - V C) V' + V' (A - V C)^T + D + V C V = 0 with C = c e_x e_x^T."""
    (a11, a12), (a21, a22) = a
    d11, d12, d22 = d
    v = (1.0, 0.0, 1.0)
    for _ in range(_NEWTON_STEPS):
        v11, v12, _ = v
        new = _lyapunov(((a11 - c * v11, a12), (a21 - c * v12, a22)),
                        (d11 + c * v11 * v11, d12 + c * v11 * v12,
                         d22 + c * v12 * v12))
        step = max(abs(x - y) for x, y in zip(new, v))
        if step <= _NEWTON_RTOL * max(map(abs, new)):
            return new
        v = new
    raise RiccatiError("Newton-Kleinman iteration for the steady state did "
                       f"not converge in {_NEWTON_STEPS} steps")


def _exp_coeffs(m, t: np.ndarray):
    """(f, g) with exp(m t) = f I + g (m - a I), a = tr(m) / 2, at times t,
    for a 2x2 m whose eigenvalues a +- b have no positive real part.
    Overdamped, f and g are built from e^{(a+b)t} and
    e^{(a-b)t} = e^{(a+b)t} e^{-2bt}, so nothing overflows where a cosh
    would, and expm1 keeps g exact as b -> 0."""
    (m11, m12), (m21, m22) = m
    a = 0.5 * (m11 + m22)
    b2 = 0.25 * (m11 - m22) ** 2 + m12 * m21         # a^2 - det(m)
    if b2 < 0.0:
        beta = math.sqrt(-b2)
        decay = np.exp(a * t)
        return decay * np.cos(beta * t), decay * np.sin(beta * t) / beta
    b = math.sqrt(b2)
    slow = np.exp((a + b) * t)
    if b == 0.0:
        return slow, t * slow
    gap = -np.expm1(-2.0 * b * t)                    # 1 - e^{-2bt}
    return slow - 0.5 * gap * slow, slow * gap / (2.0 * b)


def _sandwich(e11, e12, e21, e22, x11, x12, x22):
    """(y11, y12, y22) of Y = E X E^T for a symmetric X.  Each entry,
    (row i of E X) . (row j of E), is built in place, so that besides E, X
    and Y at most three arrays are alive."""
    def entry(i1, i2, j1, j2):
        y = i1 * x11
        y += i2 * x12
        y *= j1
        z = i1 * x12
        z += i2 * x22
        z *= j2
        y += z
        return y

    return (entry(e11, e12, e11, e12), entry(e11, e12, e21, e22),
            entry(e21, e22, e21, e22))


def _g2_taylor(a: float, det: float, t: np.ndarray) -> np.ndarray:
    """G2 = int_0^t g^2 ds = sum_m 2^(m+1) h_m t^(m+3) / (m+3)!, as
    g^2 = 2 s^2 exp[2 l2 s, 2 a s, 2 l1 s] for the eigenvalues l1, l2 = a +- b
    of A; h_m = u_m + a h_(m-1) is the complete homogeneous polynomial in
    (l1, a, l2), and u_m = h_m(l1, l2) = 2a u_(m-1) - det u_(m-2) is real."""
    u, u_prev, h, scale, coef = 1.0, 0.0, 0.0, 0.5, []
    for m in range(_TAYLOR_TERMS):
        h = u + a * h
        scale *= 2.0 / (m + 3)
        coef.append(scale * h)
        u, u_prev = 2.0 * a * u - det * u_prev, u
    return np.polyval(coef[::-1], t) * t**3


def _unconditioned(drift, diffusion, x):
    """V(t) = E V(0) E^T + int_0^t E D E^T ds in the closed form of the
    module docstring, for V(0) = x = (x11, x12, x22)."""
    (a11, a12), (a21, a22) = drift
    a, k11 = 0.5 * (a11 + a22), 0.5 * (a11 - a22)   # A = a I + K
    b2, det = k11 * k11 + a12 * a21, a11 * a22 - a12 * a21
    if not det > 0.0:
        raise RiccatiError(f"drift has a zero eigenvalue (det {det:.6e})")
    d11, d12, d22 = diffusion
    s11, s12, s22 = (2.0 * (k11 * d11 + a12 * d12), a12 * d22 + a21 * d11,
                     2.0 * (a21 * d12 - k11 * d22))             # K D + D K^T
    q11, q12, q22 = _sandwich(k11, a12, a21, -k11, d11, d12, d22)  # K D K^T
    radius = 2.0 * (abs(a) + math.sqrt(abs(b2)))    # bounds 2 |eigenvalue|

    def covariance(t: np.ndarray):
        f, g = _exp_coeffs(drift, t)
        phi = t if a == 0.0 else np.expm1(2.0 * a * t) / (2.0 * a)
        g2 = (phi + a * g * g - f * g) / (2.0 * det)
        near = radius * t <= _TAYLOR_RADIUS
        if near.any():
            g2[near] = _g2_taylor(a, det, t[near])
        fg = 0.5 * g * g - a * g2
        f2 = phi + b2 * g2
        e11, e12, e21, e22 = f + k11 * g, a12 * g, a21 * g, f - k11 * g
        del f, g
        v11, v12, v22 = _sandwich(e11, e12, e21, e22, *x)
        del e11, e12, e21, e22
        v11 += f2 * d11 + fg * s11 + g2 * q11
        v12 += f2 * d12 + fg * s12 + g2 * q12
        v22 += f2 * d22 + fg * s22 + g2 * q22
        return v11, v12, v22

    return covariance


def _riccati(drift, diffusion, c: float, cov: np.ndarray, t_end: float):
    """Solve the lab-frame Riccati equation with drift A, diffusion D =
    (d11, d12, d22), conditioning C = c e_x e_x^T and V(0) = cov in closed
    form (module docstring); returns V(t) as a function of an array of times
    0 < t <= t_end, giving (v11, v12, v22)."""
    x = (float(cov[0, 0]), 0.5 * float(cov[0, 1] + cov[1, 0]),
         float(cov[1, 1]))
    # bound on the relative change of V by the conditioning over the run
    moved = 0.5 * c * t_end \
        * (x[0] + x[2] + t_end * (diffusion[0] + diffusion[2])) ** 2
    if moved <= _ROUNDING:
        return _unconditioned(drift, diffusion, x)
    (a11, a12), (a21, a22) = drift
    v_inf = _steady_state(drift, diffusion, c)
    if moved <= _ROUNDING * 0.5 * (v_inf[0] + v_inf[2]):
        return _unconditioned(drift, diffusion, x)
    a11, a21 = a11 - c * v_inf[0], a21 - c * v_inf[1]   # Abar = A - V* C
    w_inf = _lyapunov(((a11, a21), (a12, a22)), (c, 0.0, 0.0))
    d11, d12, d22 = x[0] - v_inf[0], x[1] - v_inf[1], x[2] - v_inf[2]
    det0 = d11 * d22 - d12 * d12
    k11 = 0.5 * (a11 - a22)             # Abar - a I = [[k11, a12], [a21, -k11]]

    def covariance(t: np.ndarray):
        # each array is dropped once spent, so few are alive at once
        f, g = _exp_coeffs(((a11, a12), (a21, a22)), t)
        e11, e12, e21, e22 = f + k11 * g, a12 * g, a21 * g, f - k11 * g
        del f, g
        w11, w12, w22 = _sandwich(e11, e21, e12, e22, *w_inf)
        w11, w12, w22 = w_inf[0] - w11, w_inf[1] - w12, w_inf[2] - w22
        # D0 (I + W D0)^-1 = (D0 + det(D0) adj(W)) / det(I + W D0)
        den = 1.0 + d11 * w11 + 2.0 * d12 * w12 + d22 * w22 \
            + det0 * (w11 * w22 - w12 * w12)
        m11, m12, m22 = ((d11 + det0 * w22) / den, (d12 - det0 * w12) / den,
                         (d22 + det0 * w11) / den)
        del w11, w12, w22, den
        v11, v12, v22 = _sandwich(e11, e12, e21, e22, m11, m12, m22)
        del e11, e12, e21, e22, m11, m12, m22
        v11 += v_inf[0]
        v12 += v_inf[1]
        v22 += v_inf[2]
        return v11, v12, v22

    return covariance


def _co_rotating(phase: np.ndarray, v11, v12, v22, vx, vp, vxp):
    """Write R V R^T, R = [[cos, -sin], [sin, cos]](phase), into the
    V_x, V_p and V_xp arrays vx, vp and vxp."""
    c, s = np.cos(phase), np.sin(phase)
    cc, ss, cs = c * c, s * s, c * s
    del c, s
    vx[:] = cc * v11 - 2.0 * cs * v12 + ss * v22
    vp[:] = ss * v11 + 2.0 * cs * v12 + cc * v22
    vxp[:] = cs * (v11 - v22) + (cc - ss) * v12


def simulate_conditional(cfg: StepConfig, t_end: float, tau: float,
                         initial_cov: np.ndarray | None = None,
                         record_every: int | None = None) -> Trajectory:
    """Propagate the conditional covariance from a thermal initial state.

    ``tau`` is the unit of the record grid only: with
    n_steps = round(t_end / tau), record k (from 0) is the covariance at
    t = (k + 1) (record_every tau), and the last one at n_steps tau.  Each
    record is the closed form of the module docstring at the time it is
    labelled with, so tau sets no accuracy.  Raises ValueError naming t_end,
    tau and record_every, before any array is built, if t_end / tau is not
    finite or the grid would hold more than _MAX_RECORDS records.  Aborts
    with PhysicalityError at the first recorded covariance whose det is
    below 1 - _PHYSICAL_TOL or not a number, and with RiccatiError if no
    stabilizing steady state is found.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    if record_every is not None and record_every < 1:
        raise ValueError("record_every must be >= 1")
    steps = float(t_end) / float(tau)
    grid = (f"t_end = {float(t_end)!r}, tau = {float(tau)!r}, "
            f"record_every = {record_every!r}")
    if steps == math.inf:
        raise ValueError(f"t_end / tau is not finite ({grid})")
    n_steps = max(1, int(round(steps)))
    if record_every is None:
        record_every = max(1, n_steps // 2000)
    n_records = -(-n_steps // record_every)
    if n_records > _MAX_RECORDS:
        raise ValueError(f"the record grid would hold more than "
                         f"{_MAX_RECORDS} records ({grid})")
    cov = (2.0 * cfg.n_th + 1.0) * np.eye(2) if initial_cov is None \
        else np.array(initial_cov, dtype=float)
    if cov.shape != (2, 2) or not np.all(np.isfinite(cov)):
        raise ValueError("initial_cov must be a finite 2x2 array")
    t = np.arange(1, n_records + 1) * (record_every * tau)
    t[-1] = n_steps * tau
    covariance = _riccati(*_coefficients(cfg), cov, t[-1])
    vx, vp, vxp = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    for lo in range(0, len(t), _STAMP_BLOCK):
        hi = min(lo + _STAMP_BLOCK, len(t))
        v11, v12, v22 = covariance(t[lo:hi])
        det = v11 * v22 - v12 * v12
        bad = np.flatnonzero(~(det >= 1.0 - _PHYSICAL_TOL))
        if bad.size:
            raise PhysicalityError(float(t[lo + bad[0]]), float(det[bad[0]]))
        _co_rotating(cfg.omega_m * t[lo:hi], v11, v12, v22, vx[lo:hi],
                     vp[lo:hi], vxp[lo:hi])
        del v11, v12, v22, det     # before the next block's temporaries
    return Trajectory(t=t, vx=vx, vp=vp, vxp=vxp)


def step_config_for(s: ScenarioParams, damping: str) -> StepConfig:
    """The inputs of the Riccati equation for a scenario, its two rates
    from evaluate_coupling(s); ``damping`` is "symmetric" or "momentum"."""
    ir, _, cr = evaluate_coupling(s)
    kappa_n = _information_rate(cr.g_bar, s.drive.epsilon, 1.0 - cr.nu,
                                ir.gamma)
    return StepConfig(omega_m=s.mechanics.omega_m, damping=damping,
                      gamma=s.mechanics.gamma, n_th=s.mechanics.n_th,
                      kappa_det=cr.kappa, kappa_n=kappa_n)


def default_tau(cfg: StepConfig) -> float:
    """Default record-grid unit: 5e-3 over the fastest rate of the
    dynamics."""
    rate = max(cfg.omega_m, cfg.gamma * (2.0 * cfg.n_th + 1.0),
               cfg.kappa_det**2 + cfg.kappa_n**2)
    return 5e-3 / rate


def simulate(s: ScenarioParams, damping: str, t_end: float,
             tau: float | None = None,
             record_every: int | None = None) -> Trajectory:
    """End-to-end conditional-squeezing run for a scenario.

    Computes the surface-modified rates at s.distance, assembles the
    configuration and propagates the thermal initial state up to t_end,
    reporting it in the rotating frame.
    """
    cfg = step_config_for(s, damping)
    if tau is None:
        tau = default_tau(cfg)
    return simulate_conditional(cfg, t_end, tau, record_every=record_every)
