"""Closed-form oracle for the ground shift of a sheet of constant s.

When the sheet's s = sigma(iu)/(eps0 c) is the same at every frequency,
the Fresnel coefficients do not depend on u and the two integrals of the
ground shift can be swapped.  An undoped sheet is one case, with
s = pi alpha at every frequency (mu = 0); a large s approaches a perfect
mirror.  With u = w0 t,
zb = k0 d t (k0 = w0/c) and T = (1/4pi) Int_1^inf dchi e^{-2 chi zb} K(chi),

    dw_g = Gamma0 Int_0^inf dt t^3/(1 + t^2) T(k0 d t)
         = (Gamma0/4pi) Int_1^inf dchi K(chi) h(2 k0 d chi),

    K = r_s - (2 chi^2 - 1) r_p,  r_p = chi s/(chi s + 2),
    r_s = -s/(s + 2 chi),  h(x) = Int_0^inf t^3 e^{-xt}/(1 + t^2) dt
                                = 1/x^2 - g(x),

where g(x) = -Ci(x) cos x - si(x) sin x is the auxiliary function of the
sine and cosine integrals (Abramowitz & Stegun 5.2.7), si = Si - pi/2.
The slope is d dw_g/dd = (Gamma0/4pi) Int dchi K(chi) 2 k0 chi
h'(2 k0 d chi), with h'(x) = -2/x^3 + 1/x - f(x) and
f(x) = Ci(x) sin x - si(x) cos x.  From x = 60 on, h and h' come from the
asymptotic series of f and g (A&S 5.2.34, 5.2.35),

    h = -sum_{n>=1} (-1)^n (2n+1)!/x^{2n+2},
    h' = -sum_{n>=2} (-1)^n (2n)!/x^{2n+1},

because through Ci and si they cancel catastrophically at large x, even
at 30 digits.

A perfect mirror (r_p = 1, r_s = -1, so K = -2 chi^2) gives
dw_g -> -(Gamma0/16) (k0 d)^-3 in the near field, because
Int_0^inf y^2 h(y) dy = pi (perfect_mirror_moment); its kernel is
T = -(1/2pi) Int_1^inf chi^2 e^{-a chi} dchi with a = 2 zb
(mirror_trace).

Everything is mpmath at 30 digits; the library gives only the constants.
"""

import mpmath as mp

import casimir_sense as cs

#: working precision, decimal digits
DPS = 30
#: x from which h and h' come from their asymptotic series
ASYMPTOTIC_X = 60


def _series(x, first, power):
    """-sum_{n>=first} (-1)^n (2n+power-1)!/x^{2n+power}, summed up to its
    smallest term (an asymptotic series; at x >= 60 that term is below
    1e-19 of the first)."""
    total, n = mp.mpf(0), first
    term = mp.factorial(2 * n + power - 1) / x ** (2 * n + power)
    while True:
        total -= (-1) ** n * term
        n += 1
        nxt = term * (2 * n + power - 2) * (2 * n + power - 1) / x ** 2
        if nxt >= term or nxt < mp.eps * abs(total):
            return total
        term = nxt


def h_pair(x):
    """(h(x), h'(x)): h = 1/x^2 - g(x) = Int_0^inf t^3 e^{-xt}/(1 + t^2) dt,
    h' = -2/x^3 + 1/x - f(x)."""
    if x >= ASYMPTOTIC_X:
        return _series(x, 1, 2), _series(x, 2, 1)
    ci, si, cos, sin = mp.ci(x), mp.si(x) - mp.pi / 2, mp.cos(x), mp.sin(x)
    return (1 / x ** 2 + ci * cos + si * sin,
            -2 / x ** 3 + 1 / x - ci * sin + si * cos)


def _kernel(chi, s):
    """K(chi) = r_s - (2 chi^2 - 1) r_p of a sheet with s = sigma/(eps0 c)."""
    return -s / (s + 2 * chi) - (2 * chi ** 2 - 1) * chi * s / (chi * s + 2)


def ground_shift_constant_s(d, e, s):
    """(dw_g, d dw_g/dd) at distance d of a sheet whose s = sigma/(eps0 c)
    is ``s`` at every frequency, as floats."""
    with mp.workdps(DPS):
        s = mp.mpf(s)
        k0 = mp.mpf(e.omega0) / mp.mpf(cs.CONSTANTS.c)
        x = 2 * k0 * mp.mpf(d)          # h's argument is x chi
        # breakpoints: the r_p knee chi s = 2, the r_s knee 2 chi = s, h's
        # scale and its switch
        cuts = sorted({mp.mpf(1), *(c for c in (2 / s, s / 2, 1 / x,
                                                ASYMPTOTIC_X / x) if c > 1)})
        path = [*cuts, mp.inf]

        def integrand(chi):
            # value + i d slope: one quadrature, both parts of one scale
            y = x * chi
            value, slope = h_pair(y)
            return _kernel(chi, s) * mp.mpc(value, y * slope)

        total = mp.quad(integrand, path) * mp.mpf(e.gamma0) / (4 * mp.pi)
        return float(total.real), float(total.imag / mp.mpf(d))


def perfect_mirror_moment():
    """Int_0^inf y^2 h(y) dy, which is pi."""
    with mp.workdps(DPS):
        return mp.quad(lambda y: y ** 2 * h_pair(y)[0],
                       [0, 1, ASYMPTOTIC_X, mp.inf])


def mirror_trace(zb):
    """(T, dT/dzb) of a perfect mirror: -(1/2pi) e^{-a} (1/a + 2/a^2 + 2/a^3)
    and (1/pi) e^{-a} (1/a + 3/a^2 + 6/a^3 + 6/a^4), a = 2 zb, as floats."""
    with mp.workdps(DPS):
        a = 2 * mp.mpf(zb)
        value = -mp.exp(-a) * (1 / a + 2 / a ** 2 + 2 / a ** 3) / (2 * mp.pi)
        slope = mp.exp(-a) * (1 / a + 3 / a ** 2 + 6 / a ** 3
                               + 6 / a ** 4) / mp.pi
        return float(value), float(slope)
