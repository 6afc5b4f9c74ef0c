"""Casimir-Polder motion sensing of a graphene membrane.

Level shifts and decay-rate modification of a two-level emitter near doped
graphene, the emitter-mediated motion-to-light coupling, and conditional
Gaussian squeezing of the membrane under continuous homodyne monitoring.
"""

__version__ = "0.1.0"

from .constants import CONSTANTS
from .dynamics import (PhysicalityError, StepConfig, Trajectory, simulate,
                       simulate_conditional)
from .graphene import sigma_imag_axis, sigma_real_axis
from .greens import trace_green_real_parts
from .interaction import (CouplingGradient, InteractionResult, decay_rates,
                          ground_shift, interaction_and_gradient,
                          scattering_rate_map)
from .measurement import CouplingResult, evaluate_coupling, kappa
from .params import (ConfigError, DriveParams, EmitterParams, GrapheneParams,
                     MechanicalParams, ScenarioParams, load_scenario,
                     reference_scenario, scenario_to_config)
from .quadrature import NumericsError, QuadratureError

__all__ = [
    "CONSTANTS", "PhysicalityError", "StepConfig", "Trajectory", "simulate",
    "simulate_conditional", "sigma_imag_axis", "sigma_real_axis",
    "trace_green_real_parts", "CouplingGradient",
    "InteractionResult", "decay_rates", "ground_shift",
    "interaction_and_gradient", "scattering_rate_map",
    "CouplingResult", "evaluate_coupling", "kappa", "ConfigError",
    "DriveParams", "EmitterParams", "GrapheneParams", "MechanicalParams",
    "ScenarioParams", "load_scenario", "reference_scenario",
    "scenario_to_config", "NumericsError", "QuadratureError",
]
