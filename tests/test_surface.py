"""The public surface: what ``casimir_sense.__all__`` exports."""

import inspect

import casimir_sense as cs


def _callables():
    """Every exported callable, and the methods of every exported class."""
    for name in cs.__all__:
        obj = getattr(cs, name)
        if callable(obj):
            yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def _parameters(fn):
    try:
        return inspect.signature(fn).parameters
    except ValueError:          # an exception class with the builtin __init__
        return {}


#: the exported names, sorted; a change to the public surface edits this list
PUBLIC = [
    "CONSTANTS", "ConfigError", "CouplingGradient", "CouplingResult",
    "DriveParams", "EmitterParams", "GrapheneParams",
    "InteractionResult", "MechanicalParams", "NumericsError",
    "PhysicalityError", "QuadratureError", "ScenarioParams", "StepConfig",
    "Trajectory", "decay_rates", "evaluate_coupling", "ground_shift",
    "interaction_and_gradient", "kappa", "load_scenario", "reference_scenario",
    "scattering_rate_map", "scenario_to_config", "sigma_imag_axis",
    "sigma_real_axis", "simulate", "simulate_conditional",
    "trace_green_real_parts", "transition_gradient",
]


def test_exports_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(cs.__all__) == PUBLIC


def test_names_are_unique():
    assert len(cs.__all__) == len(set(cs.__all__))


def test_names_resolve():
    assert [n for n in cs.__all__ if not hasattr(cs, n)] == []


def test_no_callable_takes_constants():
    # the physical constants are one module-level set, not a parameter
    offenders = [name for name, fn in _callables()
                 if "constants" in _parameters(fn)]
    assert offenders == []
