"""The benchmark's layer tracer patches library names by module attribute;
a refactor that drops or renames one of them breaks ``run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module           # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_every_traced_binding_resolves(tracing):
    bindings = ([(m, n) for m, n, _ in tracing._SPANNED]
                + list(tracing._QUADRATURE) + list(tracing._COUNTED))
    missing = [f"{m.__name__}.{n}" for m, n in bindings
               if not callable(getattr(m, n, None))]
    assert missing == []
    names = {f"{m.__name__.rpartition('.')[2]}.{n}" for m, n in bindings}
    assert {"measurement.decay_rates", "measurement.transition_gradient",
            "interaction.transition_shift",
            "interaction._trace_imag_scaled"} <= names


def test_tracer_installs_and_restores(tracing):
    bindings = [(m, n) for m, n, _ in tracing._SPANNED]
    before = [getattr(m, n) for m, n in bindings]
    with tracing.Tracer().installed():
        assert all(getattr(m, n) is not fn
                   for (m, n), fn in zip(bindings, before))
    assert all(getattr(m, n) is fn for (m, n), fn in zip(bindings, before))


def test_micro_cases_run():
    # run.py --trace 1 times each case; one call checks the names and call
    # signatures they use, s.constants.c among them
    for _, _, call in _load("micro")._cases():
        call()


def test_workloads_import():
    # workloads.py imports the library's typed errors by name
    assert _load("workloads").TYPED_ERRORS
