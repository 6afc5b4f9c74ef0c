"""Physical constants (CODATA 2018, SI) used throughout the package."""

import math


class PhysicalConstants:
    """SI constants plus the derived quantities the model needs, read-only:
    the class holds the values and its instances take no attributes."""

    __slots__ = ()

    c = 299792458.0                 # speed of light, m/s
    hbar = 1.054571817e-34          # reduced Planck constant, J s
    kB = 1.380649e-23               # Boltzmann constant, J/K
    e = 1.602176634e-19             # elementary charge, C
    eps0 = 8.8541878128e-12         # vacuum permittivity, F/m
    mu0 = 1.25663706212e-6          # vacuum permeability, H/m
    alpha = e**2 / (4.0 * math.pi * eps0 * hbar * c)   # fine-structure constant
    sigma0 = e**2 / (4.0 * hbar)    # universal sheet conductivity e^2/4hbar, S


#: The one constant set every computation reads.
CONSTANTS = PhysicalConstants()
