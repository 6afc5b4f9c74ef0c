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


def test_names_are_unique():
    assert len(cs.__all__) == len(set(cs.__all__))


def test_names_resolve():
    assert [n for n in cs.__all__ if not hasattr(cs, n)] == []


def test_no_callable_takes_constants():
    # the physical constants are one module-level set, not a parameter
    offenders = [name for name, fn in _callables()
                 if "constants" in _parameters(fn)]
    assert offenders == []
