"""Scenario parameters, in SI units throughout.

A scenario bundles the emitter, the graphene sheet, the mechanical mode, the
drive/detection settings and the emitter-sheet distance.  Everything is
immutable after construction.  Config files are flat INI-style sections of
plain numbers, with no ``%`` interpolation and the unit in the key name::

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

    [geometry]
    distance_m = 18e-9

Each key has one spelling: lowercase, as above, followed by ``=``.
Sections and keys outside this format are rejected, ``[DEFAULT]`` and
upper-case spellings among them, so that a misspelled optional key cannot
silently take its default, and so is a value that is not finite: the
ConfigError names the field.  A ``key: value`` line does not parse.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

from .constants import CONSTANTS


class ConfigError(ValueError):
    """Raised when a scenario config is missing keys or violates invariants."""


def _require_finite(params, prefix: str) -> None:
    """Raise ConfigError naming the first float field of ``params`` that is
    inf or nan."""
    for field in fields(params):
        value = getattr(params, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{prefix}{field.name} must be finite, "
                              f"got {value!r}")


@dataclass(frozen=True, slots=True)
class EmitterParams:
    """Two-level emitter: transition frequency and free-space decay rate."""

    omega0: float       # rad/s
    gamma0: float       # rad/s

    def __post_init__(self):
        if not self.omega0 > 0:
            raise ConfigError("emitter.omega0 must be positive")
        if not self.gamma0 > 0:
            raise ConfigError("emitter.gamma0 must be positive")
        _require_finite(self, "emitter.")

    @classmethod
    def from_wavelength(cls, lambda0: float, gamma0: float) -> "EmitterParams":
        if not 0 < lambda0 < math.inf:
            raise ConfigError("emitter.lambda0 must be positive and finite")
        return cls(omega0=2.0 * math.pi * CONSTANTS.c / lambda0, gamma0=gamma0)

    @property
    def lambda0(self) -> float:
        return 2.0 * math.pi * CONSTANTS.c / self.omega0


@dataclass(frozen=True, slots=True)
class GrapheneParams:
    """Doped graphene sheet.

    ``mu`` is the Fermi energy divided by hbar (rad/s); config files express
    it as a fraction of hbar*omega0.
    """

    mu: float           # Fermi energy / hbar, rad/s
    gamma_g: float      # intraband loss rate, rad/s

    def __post_init__(self):
        if not self.mu >= 0:
            raise ConfigError("graphene.mu must be non-negative")
        if not self.gamma_g > 0:
            raise ConfigError("graphene.gamma_g must be positive")
        _require_finite(self, "graphene.")

    @classmethod
    def from_fractions(cls, mu_frac: float, omega0: float,
                       omega0_over_gamma_g: float = 1e3) -> "GrapheneParams":
        if not 0 < omega0_over_gamma_g < math.inf:
            raise ConfigError("graphene.omega0_over_gamma_g must be positive "
                              "and finite")
        return cls(mu=mu_frac * omega0, gamma_g=omega0 / omega0_over_gamma_g)


@dataclass(frozen=True, slots=True)
class MechanicalParams:
    """Single mechanical mode of the membrane."""

    omega_m: float      # rad/s
    mass: float         # kg
    quality: float      # dimensionless Q
    t_bath: float       # K

    def __post_init__(self):
        for name in ("omega_m", "mass", "quality"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"mechanics.{name} must be positive")
        if not self.t_bath >= 0:
            raise ConfigError("mechanics.t_bath must be non-negative")
        _require_finite(self, "mechanics.")

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


@dataclass(frozen=True, slots=True)
class DriveParams:
    """Weak coherent drive, set by its saturation parameter epsilon, and
    detection efficiency."""

    epsilon: float
    eta_det: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("drive.epsilon must lie in (0, 1)")
        if not 0.0 <= self.eta_det <= 1.0:
            raise ConfigError("drive.eta_det must lie in [0, 1]")


@dataclass(frozen=True, slots=True)
class ScenarioParams:
    """Full physical configuration in SI units."""

    emitter: EmitterParams
    graphene: GrapheneParams
    mechanics: MechanicalParams
    drive: DriveParams
    distance: float     # m
    #: not a field; perfbench/micro.py reads s.constants.c
    constants = CONSTANTS

    def __post_init__(self):
        if not self.distance > 0:
            raise ConfigError("distance must be positive")
        _require_finite(self, "")


# ---------------------------------------------------------------------------
# config format: (section, key, default or None if required, value in s)

_FORMAT = (
    ("emitter", "lambda0_m", None, lambda s: s.emitter.lambda0),
    ("emitter", "gamma0_rad_s", None, lambda s: s.emitter.gamma0),
    ("graphene", "mu_over_hbar_omega0", None,
     lambda s: s.graphene.mu / s.emitter.omega0),
    ("graphene", "omega0_over_gamma_g", 1e3,
     lambda s: s.emitter.omega0 / s.graphene.gamma_g),
    ("mechanics", "omega_m_rad_s", None, lambda s: s.mechanics.omega_m),
    ("mechanics", "mass_kg", None, lambda s: s.mechanics.mass),
    ("mechanics", "quality_factor", None, lambda s: s.mechanics.quality),
    ("mechanics", "bath_temperature_k", None, lambda s: s.mechanics.t_bath),
    ("drive", "epsilon", None, lambda s: s.drive.epsilon),
    ("drive", "eta_det", None, lambda s: s.drive.eta_det),
    ("geometry", "distance_m", None, lambda s: s.distance),
)


def _read(cp: configparser.ConfigParser, section: str, key: str, default):
    """One float value of the config, ``default`` if the key is absent."""
    if not cp.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing key {section}.{key}")
        return default
    raw = cp.get(section, key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"non-numeric value for {section}.{key}: "
                          f"{raw!r}") from exc


def _unknown(cp: configparser.ConfigParser) -> list[str]:
    """Sections, then keys of known sections, that _FORMAT does not list."""
    known = {(section, key) for section, key, _, _ in _FORMAT}
    sections = {section for section, _ in known}
    return ([f"[{s}]" for s in cp.sections() if s not in sections]
            + [f"{s}.{key}" for s in cp.sections() if s in sections
               for key in cp.options(s) if (s, key) not in known])


def load_scenario(config_text: str) -> ScenarioParams:
    """Parse an INI-style scenario config into a validated ScenarioParams.

    Raises ConfigError naming a missing section, else every section and key
    the format does not know (``LAMBDA0_M``), else the missing key,
    non-numeric value or invariant violation.
    """
    # '=' only, keys as written, and no section that every other inherits
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   inline_comment_prefixes=("#", ";"),
                                   default_section="")
    cp.optionxform = str
    try:
        cp.read_string(config_text)
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc
    for section, _, _, _ in _FORMAT:
        if not cp.has_section(section):
            raise ConfigError(f"missing section [{section}]")
    unknown = _unknown(cp)
    if unknown:
        raise ConfigError("unknown config section or key: "
                          + ", ".join(unknown))
    v = {key: _read(cp, section, key, default)
         for section, key, default, _ in _FORMAT}
    emitter = EmitterParams.from_wavelength(v["lambda0_m"], v["gamma0_rad_s"])
    return ScenarioParams(
        emitter=emitter,
        graphene=GrapheneParams.from_fractions(
            v["mu_over_hbar_omega0"], emitter.omega0,
            v["omega0_over_gamma_g"]),
        mechanics=MechanicalParams(v["omega_m_rad_s"], v["mass_kg"],
                                   v["quality_factor"],
                                   v["bath_temperature_k"]),
        drive=DriveParams(v["epsilon"], v["eta_det"]),
        distance=v["distance_m"])


def reference_scenario() -> ScenarioParams:
    """Operating point used for the headline numbers.

    lambda0 = 2 um, Gamma0 = 2pi*240 MHz, mu = 0.8 hbar*omega0, d = 18 nm,
    omega_m = 2pi*1 MHz, m = 2.81e-18 kg, Q = 5e4, T = 1 K, eta_det = 0.75,
    epsilon = 0.3.
    """
    emitter = EmitterParams.from_wavelength(2e-6, 2.0 * math.pi * 240e6)
    return ScenarioParams(
        emitter=emitter,
        graphene=GrapheneParams.from_fractions(0.8, emitter.omega0),
        mechanics=MechanicalParams(omega_m=2.0 * math.pi * 1e6, mass=2.81e-18,
                                   quality=5e4, t_bath=1.0),
        drive=DriveParams(epsilon=0.3, eta_det=0.75),
        distance=18e-9,
    )


def scenario_to_config(s: ScenarioParams) -> str:
    """Serialize a scenario back to the config format (round-trip aid)."""
    sections: dict[str, list[str]] = {}
    for section, key, _, value in _FORMAT:
        sections.setdefault(section, [f"[{section}]"]).append(
            f"{key} = {value(s)!r}")
    return "\n\n".join(map("\n".join, sections.values())) + "\n"
