"""Physical constants (CODATA 2018, SI) used throughout the package."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants plus the derived quantities the model needs.

    `alpha` and `sigma0` are derived in ``__post_init__`` and the defining
    identities are checked there.
    """

    c: float = 299792458.0              # speed of light, m/s
    hbar: float = 1.054571817e-34       # reduced Planck constant, J s
    kB: float = 1.380649e-23            # Boltzmann constant, J/K
    e: float = 1.602176634e-19          # elementary charge, C
    eps0: float = 8.8541878128e-12      # vacuum permittivity, F/m
    mu0: float = 1.25663706212e-6       # vacuum permeability, H/m
    alpha: float = field(init=False)    # fine-structure constant
    sigma0: float = field(init=False)   # universal sheet conductivity e^2/4hbar, S

    def __post_init__(self):
        import math

        alpha = self.e**2 / (4.0 * math.pi * self.eps0 * self.hbar * self.c)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma0", self.e**2 / (4.0 * self.hbar))
        if abs(alpha / 7.2973525693e-3 - 1.0) > 1e-9:
            raise ValueError("fine-structure constant inconsistent with inputs")
        if abs(self.c**2 * self.eps0 * self.mu0 - 1.0) > 1e-12:
            raise ValueError("c^2 * eps0 * mu0 != 1")


#: The one constant set every computation reads.
CONSTANTS = PhysicalConstants()
