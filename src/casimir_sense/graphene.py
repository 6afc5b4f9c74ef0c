"""Sheet conductivity of doped graphene on the real and imaginary axes.

The sheet conductivity combines a Drude (intraband) term with the T = 0
interband response,

    sigma(w) = (e^2 mu / pi hbar^2) i/(w + i gamma_g)
             + (e^2/4 hbar) [ Theta(hbar w - 2 mu)
                              + (i/pi) ln|(hbar w - 2 mu)/(hbar w + 2 mu)| ].

On the imaginary frequency axis w = iu the response of a passive medium is
real and positive.  The interband step/log pair does not continue naively;
its Kramers-Kronig transform does, giving

    sigma(iu) = (e^2 mu / pi hbar^2) / (u + gamma_g)
              + (e^2/4 hbar) (2/pi) arctan(hbar u / 2 mu),

with the arctan term replaced by its mu -> 0 limit (= 1) for undoped sheets.

Both public functions return sigma/sigma0, in units of the universal
conductivity sigma0 = e^2/4hbar (an undoped sheet reads 1 on the real
axis): a complex or float for a scalar frequency, an ndarray for an array.
The Fresnel pair of the free-standing sheet, formed in ``greens``, reads
sigma/(eps0 c) = pi alpha sigma/sigma0 through ``_sigma_ec``.
"""

from __future__ import annotations

import enum

import numpy as np

from .constants import CONSTANTS
from .params import GrapheneParams


class FrequencyAxis(enum.Enum):
    REAL = "real"
    IMAG = "imag"


# ---------------------------------------------------------------------------
# sigma/sigma0 internals, vectorized over omega/u; all rates in rad/s

def _sigma_real(omega, g: GrapheneParams, scale: float):
    """scale * sigma(omega)/sigma0 on the real axis."""
    omega = np.asarray(omega, dtype=float)
    mu = g.mu
    drude = (4.0 * mu / np.pi) * 1j / (omega + 1j * g.gamma_g)
    # log diverges at the interband edge hbar*omega = 2mu; that is the
    # physical T = 0 singularity, not a numerical defect.  Assembling and
    # scaling real and imaginary parts separately keeps the -inf out of
    # complex products that would turn it into nan.  At mu = 0 the log is
    # exactly 0.
    with np.errstate(divide="ignore"):
        log_term = np.log(np.abs((omega - 2.0 * mu) / (omega + 2.0 * mu)))
    value = np.empty(omega.shape, dtype=complex)
    value.real = (drude.real + np.where(omega > 2.0 * mu, 1.0, 0.0)) * scale
    value.imag = (drude.imag + log_term / np.pi) * scale
    return value


def _sigma_imag(u, g: GrapheneParams):
    """sigma(iu)/sigma0; real and positive for passive graphene."""
    u = np.asarray(u, dtype=float)
    mu = g.mu
    drude = (4.0 * mu / np.pi) / (u + g.gamma_g)
    inter = (2.0 / np.pi) * np.arctan(u / (2.0 * mu)) if mu > 0.0 \
        else np.ones_like(u)
    return drude + inter


def _sigma_ec(axis: FrequencyAxis, freq, g: GrapheneParams):
    """sigma/(eps0 c), the dimensionless conductivity of the Fresnel pair."""
    pi_alpha = np.pi * CONSTANTS.alpha
    if axis is FrequencyAxis.REAL:
        return _sigma_real(freq, g, pi_alpha)
    return pi_alpha * _sigma_imag(freq, g)


# ---------------------------------------------------------------------------
# public operations

def _positive_finite(freq) -> bool:
    """Whether every element of freq lies in (0, inf); nan does not."""
    freq = np.asarray(freq, dtype=float)
    return bool(np.all((freq > 0.0) & (freq < np.inf)))


def sigma_real_axis(omega: float, g: GrapheneParams):
    """Complex sigma(omega)/sigma0, omega > 0 in rad/s."""
    if not _positive_finite(omega):
        raise ValueError("omega must be positive and finite")
    value = _sigma_real(omega, g, 1.0)
    return complex(value) if np.isscalar(omega) else value


def sigma_imag_axis(u: float, g: GrapheneParams):
    """Real positive sigma(iu)/sigma0, u > 0 in rad/s."""
    if not _positive_finite(u):
        raise ValueError("u must be positive and finite")
    value = _sigma_imag(u, g)
    return float(value) if np.isscalar(u) else value
