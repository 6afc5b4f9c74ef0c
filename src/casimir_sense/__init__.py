"""Casimir-Polder motion sensing of a graphene membrane.

Level shifts and decay-rate modification of a two-level emitter near doped
graphene, the emitter-mediated motion-to-light coupling, and conditional
Gaussian squeezing of the membrane under continuous homodyne monitoring.
"""

__version__ = "0.1.0"

from .constants import CONSTANTS, PhysicalConstants
from .dynamics import (ConditionalState, DampingModel, PhysicalityError,
                       StepConfig, Trajectory, analytic_shorttime, build_step,
                       lab_frame, simulate, simulate_conditional)
from .graphene import (Conductivity, FrequencyAxis, FresnelPair, fresnel,
                       sigma_imag_axis, sigma_real_axis)
from .greens import GreensTrace, trace_green_imag, trace_green_real, \
    trace_green_real_parts
from .interaction import (CouplingGradient, InteractionResult, decay_rates,
                          excited_shift, ground_shift,
                          interaction_and_gradient, scattering_rate_map,
                          transition_gradient, transition_shift)
from .measurement import (CouplingResult, EmitterSteadyState,
                          detection_efficiency, evaluate_coupling, kappa,
                          renormalized_coupling, steady_state)
from .params import (ConfigError, DriveParams, EmitterParams, GrapheneParams,
                     MechanicalParams, NaturalScenario, ScenarioParams,
                     load_scenario, natural_units, reference_scenario,
                     scenario_to_config, si_units)
from .quadrature import QuadratureError

__all__ = [
    "CONSTANTS", "PhysicalConstants", "ConditionalState", "DampingModel",
    "PhysicalityError", "StepConfig", "Trajectory", "analytic_shorttime",
    "build_step", "lab_frame", "simulate", "simulate_conditional",
    "Conductivity", "FrequencyAxis", "FresnelPair", "fresnel",
    "sigma_imag_axis", "sigma_real_axis", "GreensTrace", "trace_green_imag",
    "trace_green_real", "trace_green_real_parts", "CouplingGradient",
    "InteractionResult", "decay_rates", "excited_shift", "ground_shift",
    "interaction_and_gradient", "scattering_rate_map", "transition_gradient",
    "transition_shift", "CouplingResult", "EmitterSteadyState",
    "detection_efficiency", "evaluate_coupling", "kappa",
    "renormalized_coupling", "steady_state", "ConfigError", "DriveParams",
    "EmitterParams", "GrapheneParams", "MechanicalParams", "NaturalScenario",
    "ScenarioParams", "load_scenario", "natural_units", "reference_scenario",
    "scenario_to_config", "si_units", "QuadratureError",
]
