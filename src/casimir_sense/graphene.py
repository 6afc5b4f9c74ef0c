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
The Fresnel pair of the free-standing sheet is formed from it in ``greens``.
All functions accept scalars or numpy arrays for the frequency argument.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .params import GrapheneParams


class FrequencyAxis(enum.Enum):
    REAL = "real"
    IMAG = "imag"


@dataclass(frozen=True)
class Conductivity:
    """Sheet conductivity at one frequency.  ``value`` is in SI siemens."""

    value: complex

    @property
    def sigma0_units(self) -> complex:
        """Value in multiples of the universal conductivity e^2/4hbar."""
        scaled = _scale_complex(self.value, 1.0 / CONSTANTS.sigma0)
        return complex(scaled) if scaled.ndim == 0 else scaled


# ---------------------------------------------------------------------------
# dimensionless internals (sigma in units of eps0*c); vectorized over omega/u

def _scale_complex(value, factor: float):
    """Componentwise real scaling; full complex multiply would turn the
    log-divergent (+-inf) imaginary part at the interband edge into nan."""
    out = np.empty(np.shape(value), dtype=complex)
    out.real = np.real(value) * factor
    out.imag = np.imag(value) * factor
    return out


def _sigma_ec_real(omega, mu: float, gamma_g: float):
    """sigma(omega)/(eps0 c) on the real axis; omega, mu, gamma_g in rad/s."""
    omega = np.asarray(omega, dtype=float)
    pi_alpha = np.pi * CONSTANTS.alpha
    drude = (4.0 * mu / np.pi) * 1j / (omega + 1j * gamma_g)
    if mu > 0.0:
        # log diverges at the interband edge hbar*omega = 2mu; that is the
        # physical T = 0 singularity, not a numerical defect.  Assembling
        # real and imaginary parts separately keeps the -inf out of complex
        # products that would turn it into nan.
        with np.errstate(divide="ignore"):
            log_term = np.log(np.abs((omega - 2.0 * mu) / (omega + 2.0 * mu)))
        value = np.empty(omega.shape, dtype=complex)
        value.real = drude.real + np.where(omega > 2.0 * mu, 1.0, 0.0)
        value.imag = drude.imag + log_term / np.pi
        return _scale_complex(value, pi_alpha)
    return pi_alpha * (drude + 1.0)


def _sigma_ec_imag(u, mu: float, gamma_g: float):
    """sigma(iu)/(eps0 c); real and positive for passive graphene."""
    u = np.asarray(u, dtype=float)
    pi_alpha = np.pi * CONSTANTS.alpha
    drude = (4.0 * mu / np.pi) / (u + gamma_g)
    inter = (2.0 / np.pi) * np.arctan(u / (2.0 * mu)) if mu > 0.0 \
        else np.ones_like(u)
    return pi_alpha * (drude + inter)


def _sigma_ec(axis: FrequencyAxis, freq, g: GrapheneParams):
    if g.sigma_zero:
        return np.zeros_like(np.asarray(freq, dtype=float), dtype=complex)
    if axis is FrequencyAxis.REAL:
        return _sigma_ec_real(freq, g.mu, g.gamma_g)
    return _sigma_ec_imag(freq, g.mu, g.gamma_g).astype(complex)


# ---------------------------------------------------------------------------
# public operations

def _positive_finite(freq) -> bool:
    """Whether every element of freq lies in (0, inf); nan does not."""
    freq = np.asarray(freq, dtype=float)
    return bool(np.all((freq > 0.0) & (freq < np.inf)))


def sigma_real_axis(omega: float, g: GrapheneParams) -> Conductivity:
    """Complex sheet conductivity sigma(omega), omega > 0 in rad/s."""
    if not _positive_finite(omega):
        raise ValueError("omega must be positive and finite")
    value = _scale_complex(_sigma_ec(FrequencyAxis.REAL, omega, g),
                           CONSTANTS.eps0 * CONSTANTS.c)
    return Conductivity(complex(value) if np.isscalar(omega) else value)


def sigma_imag_axis(u: float, g: GrapheneParams) -> Conductivity:
    """Real positive sigma(iu), u > 0 in rad/s."""
    if not _positive_finite(u):
        raise ValueError("u must be positive and finite")
    value = _sigma_ec(FrequencyAxis.IMAG, u, g).real * CONSTANTS.eps0 * CONSTANTS.c
    return Conductivity(float(value) if np.isscalar(u) else value)
