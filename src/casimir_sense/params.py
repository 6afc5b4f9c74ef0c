"""Scenario parameters, in SI units throughout.

A scenario bundles the emitter, the graphene sheet, the mechanical mode, the
drive/detection settings and the emitter-sheet distance.  Everything is
immutable after construction.  Config files are flat INI-style key/value
sections with the unit encoded in the key name::

    [emitter]
    lambda0_m     = 2e-6        # free-space transition wavelength, m
    gamma0_rad_s  = 1.50796e9   # free-space decay rate, rad/s

    [graphene]
    mu_over_hbar_omega0 = 0.8   # Fermi energy in units of hbar*omega0
    omega0_over_gamma_g = 1e3   # intraband loss ratio (optional, default 1e3)

    [mechanics]
    omega_m_rad_s      = 6.2832e6
    mass_kg            = 2.81e-18
    quality_factor     = 5e4
    bath_temperature_k = 1.0

    [drive]
    epsilon = 0.3               # saturation parameter Omega^2/(Delta^2+Gamma^2/4)
    eta_det = 0.75              # free-space collection efficiency
    # rabi_rad_s / detuning_rad_s may be given in addition, as a pair; they
    # are stored and written back, but no computation reads them.

    [geometry]
    distance_m = 18e-9

The default config path may be set through the ``CASIMIR_SENSE_CONFIG``
environment variable; without it the reference operating point above is used.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .constants import CONSTANTS, PhysicalConstants

ENV_CONFIG = "CASIMIR_SENSE_CONFIG"


class ConfigError(ValueError):
    """Raised when a scenario config is missing keys or violates invariants."""


@dataclass(frozen=True)
class EmitterParams:
    """Two-level emitter: transition frequency and free-space decay rate."""

    omega0: float       # rad/s
    gamma0: float       # rad/s

    def __post_init__(self):
        if self.omega0 <= 0:
            raise ConfigError("emitter.omega0 must be positive")
        if self.gamma0 <= 0:
            raise ConfigError("emitter.gamma0 must be positive")

    @classmethod
    def from_wavelength(cls, lambda0: float, gamma0: float,
                        constants: PhysicalConstants = CONSTANTS) -> "EmitterParams":
        if lambda0 <= 0:
            raise ConfigError("emitter.lambda0_m must be positive")
        return cls(omega0=2.0 * math.pi * constants.c / lambda0, gamma0=gamma0)

    @property
    def lambda0(self) -> float:
        return 2.0 * math.pi * CONSTANTS.c / self.omega0

    @property
    def k0(self) -> float:
        return self.omega0 / CONSTANTS.c


@dataclass(frozen=True)
class GrapheneParams:
    """Doped graphene sheet.

    ``mu`` is the Fermi energy divided by hbar (rad/s); config files express
    it as a fraction of hbar*omega0.  ``sigma_zero`` forces sigma = 0
    everywhere (transparent-sheet test override, exposed as --sigma-zero).
    """

    mu: float           # Fermi energy / hbar, rad/s
    gamma_g: float      # intraband loss rate, rad/s
    sigma_zero: bool = False

    def __post_init__(self):
        if self.mu < 0:
            raise ConfigError("graphene.mu must be non-negative")
        if self.gamma_g <= 0:
            raise ConfigError("graphene.gamma_g must be positive")

    @classmethod
    def from_fractions(cls, mu_frac: float, omega0: float,
                       omega0_over_gamma_g: float = 1e3,
                       sigma_zero: bool = False) -> "GrapheneParams":
        if omega0_over_gamma_g <= 0:
            raise ConfigError("graphene.omega0_over_gamma_g must be positive")
        return cls(mu=mu_frac * omega0, gamma_g=omega0 / omega0_over_gamma_g,
                   sigma_zero=sigma_zero)


@dataclass(frozen=True)
class MechanicalParams:
    """Single mechanical mode of the membrane."""

    omega_m: float      # rad/s
    mass: float         # kg
    quality: float      # dimensionless Q
    t_bath: float       # K

    def __post_init__(self):
        if self.omega_m <= 0 or self.mass <= 0 or self.quality <= 0:
            raise ConfigError("mechanics parameters must be positive")
        if self.t_bath < 0:
            raise ConfigError("mechanics.bath_temperature_k must be non-negative")

    @property
    def gamma(self) -> float:
        """Mechanical damping rate omega_m / Q, rad/s."""
        return self.omega_m / self.quality

    @property
    def x_zpm(self) -> float:
        """Zero-point amplitude sqrt(hbar / (m omega_m)), m."""
        return math.sqrt(CONSTANTS.hbar / (self.mass * self.omega_m))

    @property
    def n_th(self) -> float:
        """Thermal occupation kB T / (hbar omega_m)."""
        return CONSTANTS.kB * self.t_bath / (CONSTANTS.hbar * self.omega_m)


@dataclass(frozen=True)
class DriveParams:
    """Weak coherent drive and detection efficiency.

    epsilon sets the drive; (rabi, detuning) are optional extras that are
    stored and written back to configs, but no computation reads them.
    """

    epsilon: float
    eta_det: float
    rabi: float | None = None       # rad/s
    detuning: float | None = None   # rad/s

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("drive.epsilon must lie in (0, 1)")
        if not 0.0 <= self.eta_det <= 1.0:
            raise ConfigError("drive.eta_det must lie in [0, 1]")
        if (self.rabi is None) != (self.detuning is None):
            raise ConfigError("drive.rabi_rad_s and drive.detuning_rad_s "
                              "must be given together")


@dataclass(frozen=True)
class ScenarioParams:
    """Full physical configuration in SI units."""

    emitter: EmitterParams
    graphene: GrapheneParams
    mechanics: MechanicalParams
    drive: DriveParams
    distance: float     # m
    constants: PhysicalConstants = CONSTANTS

    def __post_init__(self):
        if self.distance <= 0:
            raise ConfigError("distance must be positive")


@dataclass(frozen=True)
class NaturalScenario:
    """Scenario in natural units: frequencies / omega0, lengths * k0.

    Quadratures are dimensionless with vacuum covariance = identity, so
    mechanical positions are measured in units of x_zpm.  The SI anchors
    (omega0, mass) make the conversion invertible.
    """

    gamma0: float       # Gamma0 / omega0
    mu: float           # mu / (hbar omega0) i.e. mu_rad_s / omega0
    gamma_g: float      # gamma_g / omega0
    omega_m: float      # omega_m / omega0
    quality: float
    n_th: float
    distance: float     # d * k0
    epsilon: float
    eta_det: float
    sigma_zero: bool
    omega0_si: float    # rad/s, SI anchor
    mass_si: float      # kg, SI anchor


def natural_units(s: ScenarioParams) -> NaturalScenario:
    """Dimensionless copy of an SI scenario; no computation uses it."""
    w0 = s.emitter.omega0
    return NaturalScenario(
        gamma0=s.emitter.gamma0 / w0,
        mu=s.graphene.mu / w0,
        gamma_g=s.graphene.gamma_g / w0,
        omega_m=s.mechanics.omega_m / w0,
        quality=s.mechanics.quality,
        n_th=s.mechanics.n_th,
        distance=s.distance * s.emitter.k0,
        epsilon=s.drive.epsilon,
        eta_det=s.drive.eta_det,
        sigma_zero=s.graphene.sigma_zero,
        omega0_si=w0,
        mass_si=s.mechanics.mass,
    )


def si_units(n: NaturalScenario, constants: PhysicalConstants = CONSTANTS) -> ScenarioParams:
    """Inverse of :func:`natural_units`; round-trips to 1e-12 relative."""
    w0 = n.omega0_si
    omega_m = n.omega_m * w0
    t_bath = n.n_th * constants.hbar * omega_m / constants.kB
    return ScenarioParams(
        emitter=EmitterParams(omega0=w0, gamma0=n.gamma0 * w0),
        graphene=GrapheneParams(mu=n.mu * w0, gamma_g=n.gamma_g * w0,
                                sigma_zero=n.sigma_zero),
        mechanics=MechanicalParams(omega_m=omega_m, mass=n.mass_si,
                                   quality=n.quality, t_bath=t_bath),
        drive=DriveParams(epsilon=n.epsilon, eta_det=n.eta_det),
        distance=n.distance / (w0 / constants.c),
        constants=constants,
    )


# ---------------------------------------------------------------------------
# config parsing

_REQUIRED = {
    "emitter": ("lambda0_m", "gamma0_rad_s"),
    "graphene": ("mu_over_hbar_omega0",),
    "mechanics": ("omega_m_rad_s", "mass_kg", "quality_factor",
                  "bath_temperature_k"),
    "drive": ("epsilon", "eta_det"),
    "geometry": ("distance_m",),
}


def _get_float(cp: configparser.ConfigParser, section: str, key: str,
               default: float | None = None) -> float:
    if not cp.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"missing key {section}.{key}")
    raw = cp.get(section, key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"non-numeric value for {section}.{key}: {raw!r}") from exc


def load_scenario(config_text: str,
                  constants: PhysicalConstants = CONSTANTS) -> ScenarioParams:
    """Parse an INI-style scenario config into a validated ScenarioParams.

    Raises ConfigError naming the offending key for missing keys, non-numeric
    values and invariant violations.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(config_text)
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc

    for section, keys in _REQUIRED.items():
        if not cp.has_section(section):
            raise ConfigError(f"missing section [{section}]")
        for key in keys:
            if not cp.has_option(section, key):
                raise ConfigError(f"missing key {section}.{key}")

    emitter = EmitterParams.from_wavelength(
        _get_float(cp, "emitter", "lambda0_m"),
        _get_float(cp, "emitter", "gamma0_rad_s"),
        constants,
    )
    graphene = GrapheneParams.from_fractions(
        _get_float(cp, "graphene", "mu_over_hbar_omega0"),
        emitter.omega0,
        _get_float(cp, "graphene", "omega0_over_gamma_g", default=1e3),
        sigma_zero=cp.getboolean("graphene", "sigma_zero", fallback=False),
    )
    mechanics = MechanicalParams(
        omega_m=_get_float(cp, "mechanics", "omega_m_rad_s"),
        mass=_get_float(cp, "mechanics", "mass_kg"),
        quality=_get_float(cp, "mechanics", "quality_factor"),
        t_bath=_get_float(cp, "mechanics", "bath_temperature_k"),
    )
    rabi = _get_float(cp, "drive", "rabi_rad_s", default=math.nan)
    detuning = _get_float(cp, "drive", "detuning_rad_s", default=math.nan)
    drive = DriveParams(
        epsilon=_get_float(cp, "drive", "epsilon"),
        eta_det=_get_float(cp, "drive", "eta_det"),
        rabi=None if math.isnan(rabi) else rabi,
        detuning=None if math.isnan(detuning) else detuning,
    )
    return ScenarioParams(emitter=emitter, graphene=graphene,
                          mechanics=mechanics, drive=drive,
                          distance=_get_float(cp, "geometry", "distance_m"),
                          constants=constants)


def reference_scenario(**overrides) -> ScenarioParams:
    """Operating point used for the headline numbers.

    lambda0 = 2 um, Gamma0 = 2pi*240 MHz, mu = 0.8 hbar*omega0, d = 18 nm,
    omega_m = 2pi*1 MHz, m = 2.81e-18 kg, Q = 5e4, T = 1 K, eta_det = 0.75,
    epsilon = 0.3.  Keyword overrides replace whole sub-params or the
    distance, e.g. ``reference_scenario(distance=10e-9)``.
    """
    emitter = EmitterParams.from_wavelength(2e-6, 2.0 * math.pi * 240e6)
    base = ScenarioParams(
        emitter=emitter,
        graphene=GrapheneParams.from_fractions(0.8, emitter.omega0),
        mechanics=MechanicalParams(omega_m=2.0 * math.pi * 1e6, mass=2.81e-18,
                                   quality=5e4, t_bath=1.0),
        drive=DriveParams(epsilon=0.3, eta_det=0.75),
        distance=18e-9,
    )
    return replace(base, **overrides) if overrides else base


def scenario_to_config(s: ScenarioParams) -> str:
    """Serialize a scenario back to the config format (round-trip aid)."""
    lines = [
        "[emitter]",
        f"lambda0_m = {s.emitter.lambda0!r}",
        f"gamma0_rad_s = {s.emitter.gamma0!r}",
        "",
        "[graphene]",
        f"mu_over_hbar_omega0 = {s.graphene.mu / s.emitter.omega0!r}",
        f"omega0_over_gamma_g = {s.emitter.omega0 / s.graphene.gamma_g!r}",
        f"sigma_zero = {s.graphene.sigma_zero}",
        "",
        "[mechanics]",
        f"omega_m_rad_s = {s.mechanics.omega_m!r}",
        f"mass_kg = {s.mechanics.mass!r}",
        f"quality_factor = {s.mechanics.quality!r}",
        f"bath_temperature_k = {s.mechanics.t_bath!r}",
        "",
        "[drive]",
        f"epsilon = {s.drive.epsilon!r}",
        f"eta_det = {s.drive.eta_det!r}",
    ]
    if s.drive.rabi is not None:
        lines += [f"rabi_rad_s = {s.drive.rabi!r}",
                  f"detuning_rad_s = {s.drive.detuning!r}"]
    lines += ["", "[geometry]", f"distance_m = {s.distance!r}", ""]
    return "\n".join(lines)
