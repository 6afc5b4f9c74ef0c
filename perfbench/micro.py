"""Single-call layer cases, timed untraced, printed next to ROADMAP's table.

They are reported with the traced run and never gated on: they locate a
change inside the call chain, the workloads decide whether it counts.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from casimir_sense import dynamics, graphene, greens, interaction, measurement
from casimir_sense.graphene import FrequencyAxis
from casimir_sense.params import reference_scenario

#: ROADMAP.md baseline table (2-core machine, Python 3.11, numpy 2.4), ms
ROADMAP_MS = {
    "ground_shift": 51.0,
    "decay_rates": 41.0,
    "transition_gradient": 157.0,
    "evaluate_coupling": 202.0,
    "simulate_momentum": 1350.0,
}


def _cases():
    s = reference_scenario()
    e, g, d = s.emitter, s.graphene, s.distance
    w0 = e.omega0
    omegas = np.linspace(0.01, 3.0, 100_000) * w0
    sigma_iw0 = float(np.real(graphene._sigma_ec(FrequencyAxis.IMAG, w0, g)))
    zb = d * w0 / s.constants.c
    return [
        ("sigma_1e5", 5, lambda: graphene.sigma_real_axis(omegas, g)),
        ("trace_imag_scaled", 5, lambda: greens._trace_imag_scaled(zb, sigma_iw0)),
        ("trace_green_real_parts", 5,
         lambda: greens.trace_green_real_parts(d, w0, g)),
        ("ground_shift", 5, lambda: interaction.ground_shift(d, e, g)),
        ("decay_rates", 5, lambda: interaction.decay_rates(d, e, g)),
        ("transition_gradient", 5,
         lambda: interaction.transition_gradient(d, e, g)),
        ("evaluate_coupling", 5, lambda: measurement.evaluate_coupling(s)),
        ("simulate_momentum", 3, lambda: dynamics.simulate(s, "momentum", 3e-6)),
        ("simulate_symmetric", 3,
         lambda: dynamics.simulate(s, "symmetric", 3e-6)),
    ]


def run_cases() -> dict[str, float]:
    """Median wall time in ms of each case at the operating point."""
    out = {}
    for name, repeats, call in _cases():
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            call()
            times.append(perf_counter() - t0)
        out[name] = 1e3 * statistics.median(times)
    return out


def report(ms: dict[str, float]) -> list[str]:
    lines = [f"{'case':<24}{'this run ms':>14}{'ROADMAP ms':>12}"]
    for name, value in ms.items():
        base = ROADMAP_MS.get(name)
        lines.append(f"{name:<24}{value:>14.3f}"
                     f"{base if base is not None else '-':>12}")
    return lines
