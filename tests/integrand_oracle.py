"""The imaginary-axis integrand in expression form, kept as an oracle.

greens._trace_imag_scaled builds its integrand in place, in the output
stack and three scratch arrays.  This is the form it replaced: the same
arithmetic written as one expression, with a temporary for every
intermediate.  Each element goes through the same operations in the same
order, up to commuted products and 2 chi^2 formed as (2 chi) chi against
(chi chi) 2, which round alike because a factor 2 rounds nothing.  So the
two forms must agree bit for bit.
"""

import numpy as np

from casimir_sense import greens, quadrature


def integrand(chi, zb, s):
    """[-e^{-2 (chi-1) zb} (r_s - (2 chi^2 - 1) r_p), chi times it]."""
    out = np.empty((2, *chi.shape))
    f = out[0]
    two_chi2 = 2.0 * chi * chi
    cs = chi * s
    np.exp(2.0 * zb * (1.0 - chi), out=f)
    f *= cs / (cs + two_chi2) + (two_chi2 - 1.0) * (cs / (cs + 2.0))
    np.multiply(chi, f, out=out[1])
    return out


def patch_in(monkeypatch):
    """Make greens' inner refinement integrate this integrand instead of
    the kernel's own; everything else in the kernel stays as it is."""
    def integrate_rows(f, *args, **kwargs):
        return quadrature.integrate_rows(integrand, *args, **kwargs)
    monkeypatch.setattr(greens, "integrate_rows", integrate_rows)
