"""Richardson-extrapolated central difference of the transition shift: an
independent evaluation of g = d(delta_omega)/dd, kept as an oracle for the
analytic one-pass gradient.

The step starts at d * rel_step and is halved until the extrapolation
correction drops below 1% of the gradient.  Every stencil point is a full
value-only transition_shift, so the oracle shares no derivative code with
the library.
"""

import casimir_sense as cs


class OracleError(RuntimeError):
    """The extrapolation did not reach its 1% target."""


def richardson_gradient(d, e, g, constants=cs.CONSTANTS, rel_step=0.01):
    """(g_value, error_estimate, step) of d(delta_omega)/dd at distance d."""
    h = d * rel_step
    for _ in range(3):
        if d - h <= 0:
            raise OracleError("stencil step underflows the distance")
        f = {dd: cs.transition_shift(dd, e, g, constants)
             for dd in (d + h, d - h, d + h / 2, d - h / 2)}
        coarse = (f[d + h] - f[d - h]) / (2.0 * h)
        fine = (f[d + h / 2] - f[d - h / 2]) / h
        value = (4.0 * fine - coarse) / 3.0
        estimate = abs(value - fine)
        if estimate <= 0.01 * abs(value):
            return value, estimate, h
        h *= 0.5
    raise OracleError("gradient extrapolation did not converge")
