"""Reflected dyadic Green's-function trace above the graphene sheet.

For an emitter at height z the trace of the reflected Green's function is

    Tr G(z, z, w) = (i c^2 / 4 pi w^2) *
        Int_0^inf dk_par (k_par/k_perp) e^{2 i k_perp z}
                         [ (w/c)^2 r_s + (k_par^2 - k_perp^2) r_p ],

with k_perp = sqrt((w/c)^2 - k_par^2), Im k_perp >= 0.  Only this reflected
part enters the shifts and rates; the free part is absorbed into omega0 and
Gamma0.

Internally the integral is scaled per call by the frequency's own wavevector
q0 = |w|/c, so Tr G = q0 * T(z*q0) with dimensionless kernels:

  imaginary axis (w = iu, everything real), integrated over chi =
  sqrt(1 + x^2), whose Jacobian cancels the x/chi of the k_par form:
      T = (1/4pi) Int_1^inf dchi e^{-2 chi zb} [ r_s - (2 chi^2 - 1) r_p ],
      r_p = chi s/(chi s + 2),  r_s = -s/(2 chi + s),
      s = sigma(iu)/(eps0 c) > 0, zb = z u / c.  The factor e^{-2 zb} is
      pulled out analytically so the adaptive refinement sees a kernel of
      order unity at any u; no node takes a square root.

  real axis, split at the light line x = 1, with the sheet impedance
  zeta = 1/s in place of s (zeta = 0 at the interband edge, where
  Im s = -inf and the same formulas in s give nan):
      propagating, over c = cos(theta) = sqrt(1 - x^2), kappa = 2 zb:
        T_prop = (i/4pi) Int_0^1 dc e^{i kappa c} [ r_s + (1 - 2 c^2) r_p ],
        r_p = c/(c - a_p),  r_s = a_s/(c - a_s),
        a_p = -2 zeta,  a_s = -1/(2 zeta);
      evanescent, over q = sqrt(x^2 - 1) (the Jacobian cancels the 1/k_perp
      singularity exactly), p = 2 zb:
        T_evan = (1/4pi) Int_0^inf dq e^{-p q} [ r_s + (1 + 2 q^2) r_p ],
        r_p = q/(q - b_p),  r_s = b_s/(q - b_s),
        b_p = 2i zeta (the surface plasmon),  b_s = i/(2 zeta).

Both real-axis parts are integrated in closed form: each Fresnel
coefficient has one simple pole, so the integrands are sums of q^m/(q - b)
and c^m/(c - a) under the exponential.

  evanescent: Int_0^inf e^{-pq} q^m/(q - b) dq = p^-m F_m(-p b), where
      F_m(z) = Int_0^inf e^{-t} t^m/(t + z) dt = m! e^z E_{m+1}(z), and
      F_0 = G(z) = e^z E1(z).  All F_m of one argument come from one E_n
      and the recurrence F_m = (m-1)! - z F_{m-1}, run in the direction
      that damps rounding; for |z| >= 50, from the tails of the asymptotic
      series of G, each summed smallest term first.
  propagating: P_m(a) = Int_0^1 e^{i kappa c} c^m/(c - a) dc, with
      P_0 = G(i kappa a) - e^{i kappa} G(-i kappa (1 - a)) and
      P_m = M_{m-1} + a P_{m-1}, where M_k = Int_0^1 e^{i kappa c} c^k dc
      are the elementary moments.  For |a| > 2 the recurrence would cancel,
      and P_m = -sum_n M_{m+n} a^{-n-1} converges instead.

Branches.  For a passive sheet Re zeta >= 0, so every argument of G lies in
the closed lower half-plane: -p b_p and -p b_s have imaginary parts
-2p Re zeta and -p Re s/2, and the segment from i kappa a to
-i kappa (1 - a) runs parallel to the imaginary axis at Re a <= 0.  No path
crosses E1's cut along the negative real axis, so no 2 pi i term arises.
In the strictly lossless limit, Re s = 0, the plasmon pole b_p lies on the
evanescent path and -p b_p on the cut.  A small loss approaches the cut
from below, so G takes its lower-lip value e^z (-Ei(-z) + i pi).  The i pi
is the residue of Sokhotski-Plemelj, 1/(q - b - i0) = P 1/(q - b)
+ i pi delta(q - b); it is the -i pi of E1's principal branch on the
other lip, plus 2 pi i.  The propagating segment that starts on the cut
when Re a_p = 0 takes the same lip.  At the interband edge zeta = 0,
r_p = 1 and r_s = -1 have no poles, and T_evan = 1/(pi p^3) is real, so
Gamma_nonrad is exactly 0 there.

The height enters each kernel only through its exponential, so dT/dzb is the
same integral with one more factor under it (-2 chi, i 2c, -2q).  Every
kernel returns it with T: on the imaginary axis from the same nodes, which
refine until both converge, on the real axis as the same closed form one
power higher.  There is no value-only kernel.

The imaginary-axis kernel also takes arrays of (zb, s) of any one shape,
each element one row, and refines the rows together
(quadrature.integrate_rows), each on its own panel edges; T and dT/dzb
each have the shape of zb.  Its integrand writes the value and the slope
straight into one (2, panels, nodes) stack, using three node-sized
scratch arrays and no other temporaries, so that a pass keeps a small
working set.  Every element sees the operations of the plain expression
in the same order, so the values are bit for bit those of the expression
form (kept in tests/integrand_oracle.py).  The ground shift hands over the
(panels x nodes) array of each outer pass as it is, its first two levels
in one array.  The rows stop at quadrature.RTOL, the tolerance of the
outer frequency integral they feed: every row has one sign, so a tighter
inner tolerance would not make the outer sum more accurate (quadrature
module docstring).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .constants import CONSTANTS
from .graphene import FrequencyAxis, _sigma_ec
from .params import GrapheneParams
# integrate_refined is not called here; perfbench/tracing.py binds it
from .quadrature import (NumericsError, RTOL, integrate_refined,  # noqa: F401
                         integrate_rows)

#: e^{-2 q zb} tail cutoff: exp(-2*(EXP_CUT)) ~ 1e-44 relative to the peak.
_EXP_CUT = 50.0
#: |z| from which G and F_m come from the asymptotic series of G; its
#: smallest term, about sqrt(2 pi/|z|) e^-|z|, is then below 1e-15 of F_4
_ASYMPTOTIC = 50.0
_EULER_GAMMA = 0.5772156649015329


def _trace_imag_scaled(zb, s):
    """Dimensionless imaginary-axis kernel [T, dT/dzb]; Tr G = (u/c) * T.

    zb and s may be arrays of one shape, each element a row: all rows are
    integrated together, and T and dT/dzb each have that shape, stacked
    along a new first axis.
    """
    def integrand(chi, zb, s):
        # -e^{-2 (chi-1) zb} [r_s - (2 chi^2 - 1) r_p] into f and chi times
        # it into g, r_s = -chi s/(chi s + 2 chi^2), formed in place in the
        # stack and the scratch arrays a, b, c (module docstring); products
        # only commute, and (chi chi) 2 rounds as (2 chi) chi does
        out = np.empty((2, *chi.shape))
        f, g = out
        a = 1.0 - chi
        a *= 2.0 * zb
        np.exp(a, out=f)
        np.multiply(chi, chi, out=a)
        a *= 2.0                                    # 2 chi^2
        np.multiply(chi, s, out=g)                  # chi s
        b = g + a
        np.divide(g, b, out=b)                      # -r_s
        a -= 1.0                                    # 2 chi^2 - 1
        c = g + 2.0
        np.divide(g, c, out=c)                      # r_p
        c *= a
        b += c
        f *= b
        np.multiply(chi, f, out=g)
        return out

    shape = np.shape(zb)
    zbs = np.asarray(zb, dtype=float).ravel()
    # x = 1 is no light line (the imaginary axis has none); for zb > 8 it
    # splits the last panel where the weight has decayed.  Dropping it took
    # 1.56x the nodes (176 (w0/gamma_g, mu, d) points, more at every one)
    x_edges = np.stack((np.zeros_like(zbs), 0.5 / zbs, 2.0 / zbs, 8.0 / zbs,
                        np.ones_like(zbs), _EXP_CUT / zbs + 10.0), axis=-1)
    edges = np.sqrt(1.0 + np.sort(x_edges) ** 2)
    val, _ = integrate_rows(integrand, edges, zbs, np.ravel(s), rtol=RTOL)
    # d/dzb of e^{-2 chi zb} is -2 chi, and the integrand carries -1
    scale = np.array([-1.0, 2.0])[:, None]
    out = scale * np.exp(-2.0 * zbs) * val / (4.0 * np.pi)
    return out.reshape((2, *shape))


def _asymptotic_tails(z: complex, m: int):
    """[F_0(z), ..., F_m(z)] for |z| >= _ASYMPTOTIC.

    F_k = (-z)^k sum_{j>=k} (-1)^j j!/z^{j+1}, each tail summed from its
    smallest term up.
    """
    terms = [1.0 / z]
    while len(terms) <= m or (abs(terms[-1]) > 1e-17 * abs(terms[m])
                              and len(terms) < abs(z)):
        terms.append(-terms[-1] * len(terms) / z)
    tails, total = [], 0j
    for k in range(len(terms) - 1, -1, -1):
        total += terms[k]
        if k <= m:
            tails.append((-z) ** k * total)
    return tails[::-1]


def _en_scaled(z: complex, n: int = 1) -> complex:
    """e^z E_n(z) on the principal branch of E_n for |z| < _ASYMPTOTIC
    (above, _laplace_poles sums the asymptotic series); n = 1 gives G.

    On the negative real axis it returns the limit from Im z < 0, the side
    a lossy sheet's arguments approach it from (see the module docstring).
    Power series where it does not cancel (|z| <= 2, or near the negative
    real axis, where its terms add up to about e^{|z|} against a value of
    about e^{-Re z}: |z| + Re z <= 4), continued fraction elsewhere.  Both
    stop on a convergence test that nan or inf never passes, so such a z
    raises NumericsError instead.
    """
    if not cmath.isfinite(z):
        raise NumericsError(f"E_n argument z = {z} is not finite")
    r = abs(z)
    if r <= 2.0 or r + z.real <= 4.0:
        if z.imag == 0.0:
            z = complex(z.real, -0.0)       # cmath.log: the lower lip
        # E_n = (-z)^(n-1)/(n-1)! (psi(n) - ln z)
        #       - sum_{k != n-1} (-z)^k/((k - n + 1) k!)
        psi = -_EULER_GAMMA + sum(1.0 / j for j in range(1, n))
        total, term, k, k_min = 0j, 1.0 + 0j, 0, max(r, n)
        while True:
            if k == n - 1:
                total -= term * (psi - cmath.log(z))
            else:
                total += term / (k - n + 1)
            k += 1
            term *= -z / k
            if k > k_min and abs(term) <= 1e-17 * k * abs(total):
                return -cmath.exp(z) * total
    # modified Lentz on 1/(z+n - 1 n/(z+n+2 - 2(n+1)/(z+n+4 - ...)))
    f = c = 1e-300
    d, k = 0j, 0
    while True:
        a = -float(k * (n + k - 1)) if k else 1.0
        b = z + (n + 2 * k)
        d = 1.0 / (b + a * d)
        c = b + a / c
        f *= c * d
        k += 1
        if abs(c * d - 1.0) <= 1e-16:
            return f


def _laplace_poles(z: complex, m: int):
    """[F_0(z), ..., F_m(z)], F_k(z) = Int_0^inf e^{-t} t^k/(t + z) dt.

    F_k = k! e^z E_{k+1}(z).  Up from G by F_k = (k-1)! - z F_{k-1} while
    |z| <= 4; beyond, that recurrence would lose |z|^k/k!, so F_m comes
    from E_{m+1} and the rest down, F_{k-1} = ((k-1)! - F_k)/z, which
    damps the rounding by k/|z| per step.
    """
    if abs(z) >= _ASYMPTOTIC:
        return _asymptotic_tails(z, m)
    if abs(z) <= 4.0:
        out = [_en_scaled(z)]
        for k in range(1, m + 1):
            out.append(math.factorial(k - 1) - z * out[-1])
        return out
    out = [math.factorial(m) * _en_scaled(z, m + 1)]
    for k in range(m, 0, -1):
        out.append((math.factorial(k - 1) - out[-1]) / z)
    return out[::-1]


def _segment_moments(kappa: float, n: int):
    """[M_0, ..., M_{n-1}], M_k = Int_0^1 e^{i kappa c} c^k dc.

    Upward, M_k = (e^{i kappa} - k M_{k-1})/(i kappa), while k <= kappa,
    where each step damps the rounding; above that downward,
    M_k = (e^{i kappa} - i kappa M_{k+1})/(k+1), started far enough up
    that its start error has decayed by kappa/(k+1) per step.
    """
    e = cmath.exp(1j * kappa)
    moments = []
    if kappa >= 1.0:
        moments.append((e - 1.0) / (1j * kappa))
        while len(moments) < min(n, int(kappa) + 1):
            moments.append((e - len(moments) * moments[-1]) / (1j * kappa))
    up = len(moments)
    if up == n:
        return moments
    top = n + int(kappa) + 20
    x, down = e / (top + 1 + 1j * kappa), []
    for k in range(top - 1, up - 1, -1):
        x = (e - 1j * kappa * x) / (k + 1)
        if k < n:
            down.append(x)
    return moments + down[::-1]


def _segment_pole_terms(kappa: float, a: complex, m: int, moments):
    """[P_0(a), ..., P_m(a)], P_k = Int_0^1 e^{i kappa c} c^k/(c - a) dc."""
    if abs(a) > 2.0:
        inv = 1.0 / a
        out = []
        for k in range(m + 1):
            total = 0j                      # Horner in 1/a
            for moment in reversed(moments[k:]):
                total = (total + moment) * inv
            out.append(-total)
        return out
    out = [_laplace_poles(1j * kappa * a, 0)[0] - cmath.exp(1j * kappa)
           * _laplace_poles(-1j * kappa * (1.0 - a), 0)[0]]
    for k in range(1, m + 1):
        out.append(moments[k - 1] + a * out[-1])
    return out


def _trace_real_scaled(zb: float, s: complex):
    """Dimensionless real-axis kernels (T_prop, T_evan), each the complex
    array [T, dT/dzb]."""
    if not 0.0 < zb < math.inf:
        raise NumericsError(f"real-axis kernel height zb = {zb!r} not in "
                            "(0, inf)")

    # Python's complex division works on the parts (Smith's method), so the
    # interband edge s = x - i inf gives zeta = 0 rather than nan
    zeta = 1.0 / s
    p = kappa = 2.0 * zb
    a_p = -2.0 * zeta
    # a_s a_p = 1, so at most one pole is past |a| = 2; its series in 1/a
    # needs moments up to m + n with |a|^-n < 1e-17
    far = max(abs(a_p), 1.0 / abs(a_p)) if zeta else 0.0
    n_series = int(39.2 / math.log(far)) + 2 if far > 2.0 else 0
    moments = _segment_moments(kappa, 5 + n_series)
    if not zeta:
        prop = (-2j * moments[2], 4.0 * moments[3])
        evan = (4.0 / p**3, -24.0 / p**4)
    else:
        a_s = -0.5 / zeta
        ps = _segment_pole_terms(kappa, a_s, 1, moments)
        pp = _segment_pole_terms(kappa, a_p, 4, moments)
        prop = (1j * (a_s * ps[0] + pp[1] - 2.0 * pp[3]),
                -2.0 * (a_s * ps[1] + pp[2] - 2.0 * pp[4]))
        b_s = 0.5j / zeta
        fs = _laplace_poles(-p * b_s, 1)
        fp = _laplace_poles(-2j * p * zeta, 4)
        evan = (b_s * fs[0] + fp[1] / p + 2.0 * fp[3] / p**3,
                -2.0 * (b_s * fs[1] / p + fp[2] / p**2 + 2.0 * fp[4] / p**4))
    return (np.array(prop, dtype=complex) / (4.0 * np.pi),
            np.array(evan, dtype=complex) / (4.0 * np.pi))


def trace_green_real_parts(z: float, omega: float, g: GrapheneParams):
    """(propagating, evanescent) parts of Tr G(z, z, omega).

    The split at k_par = omega/c is what separates radiative from
    non-radiative decay.  Each part is the complex array
    [value, d value/dz] (1/m, 1/m^2), both from one closed form.
    """
    if not 0.0 < z < math.inf:
        raise ValueError("z must be positive and finite")
    if not 0.0 < omega < math.inf:
        raise ValueError("omega must be positive and finite")
    s = complex(_sigma_ec(FrequencyAxis.REAL, omega, g))
    q0 = omega / CONSTANTS.c
    prop, evan = _trace_real_scaled(z * q0, s)
    # Tr G = q0 T(z q0): d/dz brings one more factor q0
    unit = np.array([q0, q0 * q0])
    return unit * prop, unit * evan
