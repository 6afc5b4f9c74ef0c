"""Short-time conditioning law: the ideal-measurement limit of the
conditional Riccati equation, an oracle for the exact engine.

With gamma = 0, nu = 1 and t << 1/omega_m the rotation and the damping drop
out, and a thermal state monitored at information rate kappa obeys
dV_x/dt = -kappa^2 V_x^2 and dV_p/dt = kappa^2, whence the closed forms of
``analytic_shorttime``.
"""


def analytic_shorttime(vx_in: float, vp_in: float, kappa: float, t: float):
    """Ideal-measurement closed forms V_x = 1/(1/V_x_in + kappa^2 t),
    V_p = V_p_in + kappa^2 t  (gamma = 0, nu = 1, t << 1/omega_m)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return 1.0 / (1.0 / vx_in + kappa**2 * t), vp_in + kappa**2 * t
