"""Benchmark workloads: seeded inputs, one library call per op, output checks.

Each workload is an endless, deterministic sequence of blocks of ops built
from the seed.  Draws use Kronecker (golden-ratio) sequences with a seeded
offset, so every prefix of the sequence covers its parameter range evenly and
the work done in a fixed-length run barely depends on the seed.  The timed
loop stops only at block boundaries, so a run always holds whole blocks.

The ops call the library through module attributes (``measurement.X``,
``interaction.X``, ``dynamics.X``) looked up at call time, so the tracer in
``tracing.py`` sees them when it is installed.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable

import numpy as np

from casimir_sense import dynamics, interaction, measurement
from casimir_sense.dynamics import PhysicalityError
from casimir_sense.interaction import NumericsError
from casimir_sense.params import GrapheneParams, reference_scenario
from casimir_sense.quadrature import QuadratureError

#: errors the library documents as typed numerical failures; any other
#: exception escaping an op marks the run incorrect, not just the op failed
TYPED_ERRORS = (QuadratureError, NumericsError, PhysicalityError)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: the README's sensitivity grid; 0.5 lands on the T = 0 interband edge
MU_GRID = np.linspace(0.2, 1.0, 9)
#: laser detunings of one scattering-map row, units of Gamma0 (as in
#: scripts/survey_data.py --quick)
DETUNINGS = np.linspace(-4000.0, 1000.0, 6)

# "same behaviour" tolerances from ROADMAP.md
RTOL_QUADRATURE = 1e-6
RTOL_GRADIENT = 1e-2
RTOL_MIN_VX = 5e-3


def _kronecker(offset: float, k: int) -> float:
    """k-th point of the golden-ratio sequence started at ``offset``."""
    return float((offset + k * _GOLDEN) % 1.0)


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


@dataclass(frozen=True)
class Op:
    """One library call: ``run()`` returns the raw result, ``check`` maps it
    to a record of checked values (raising CheckError on a bad output)."""

    index: int
    inputs: dict
    run: Callable[[], object]
    check: Callable[[object], dict]


class CheckError(AssertionError):
    """A returned result violated an invariant or its stored reference."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _finite(record: dict) -> dict:
    for key, val in record.items():
        _require(math.isfinite(val), f"{key} = {val} is not finite")
    return record


def _close(got: float, want: float, rtol: float, key: str) -> None:
    _require(abs(got - want) <= rtol * abs(want),
             f"{key} = {got!r}, reference {want!r} (rtol {rtol:g})")


# ---------------------------------------------------------------------------
# coupling_grid: evaluate_coupling per (d, mu)

def _coupling_record(result) -> dict:
    ir, cg, cr = result
    record = _finite({
        "delta_g": ir.delta_g, "delta_e": ir.delta_e,
        "delta_omega": ir.delta_omega, "gamma": ir.gamma,
        "gamma_rad": ir.gamma_rad, "gamma_nonrad": ir.gamma_nonrad,
        "nu": cr.nu, "g_value": cg.g_value, "g_bar": cr.g_bar,
        "kappa": cr.kappa, "kappa_inv_si": cr.kappa_inv_si,
        "merit": cr.merit})
    _require(abs(ir.gamma - (ir.gamma_rad + ir.gamma_nonrad))
             <= 1e-12 * abs(ir.gamma), "gamma != gamma_rad + gamma_nonrad")
    return record


_COUPLING_RTOL = {key: RTOL_QUADRATURE for key in (
    "delta_g", "delta_e", "delta_omega", "gamma", "gamma_rad",
    "gamma_nonrad", "nu")}
_COUPLING_RTOL.update({key: RTOL_GRADIENT for key in (
    "g_value", "g_bar", "kappa", "kappa_inv_si", "merit")})


class CouplingGrid:
    """Block = the 9 README mu values in a seeded order; d log-uniform over
    the CLI sensitivity range 10-40 nm."""

    block_size = len(MU_GRID)
    tail_percentile = 80
    rtol = _COUPLING_RTOL

    def __init__(self, seed: int):
        self._seed = seed
        self._d_offset = np.random.default_rng(seed).random()
        self.base = reference_scenario()

    def block(self, j: int) -> list[Op]:
        ops = []
        w0 = self.base.emitter.omega0
        order = np.random.default_rng((self._seed, j)).permutation(len(MU_GRID))
        for i, m in enumerate(order):
            k = j * self.block_size + i
            d = _log_uniform(10e-9, 40e-9, _kronecker(self._d_offset, k))
            mu = float(MU_GRID[m])
            s = replace(self.base, distance=d,
                        graphene=GrapheneParams.from_fractions(mu, w0))
            ops.append(Op(k, {"d": d, "mu": mu},
                          lambda s=s: measurement.evaluate_coupling(s),
                          _coupling_record))
        return ops


# ---------------------------------------------------------------------------
# scattering_map: scattering_rate_map per (d, detuning) cell

class ScatteringMap:
    """Block = one map row: a seeded d over 8-60 nm and the 6 detunings.
    Rows alternate between mu = 0 and mu = 0.8; each mu has its own
    Kronecker sequence of distances."""

    block_size = len(DETUNINGS)
    tail_percentile = 80
    rtol = {"f_over_f0": RTOL_QUADRATURE}

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self._d_offsets = (rng.random(), rng.random())
        self._first_mu = int(rng.integers(2))
        base = reference_scenario()
        w0 = base.emitter.omega0
        self.scenarios = tuple(
            replace(base, graphene=GrapheneParams.from_fractions(mu, w0))
            for mu in (0.0, 0.8))

    def block(self, j: int) -> list[Op]:
        which = (j + self._first_mu) % 2
        s = self.scenarios[which]
        d = _log_uniform(8e-9, 60e-9,
                         _kronecker(self._d_offsets[which], j // 2))
        w0, g0 = s.emitter.omega0, s.emitter.gamma0
        ops = []
        for i, det in enumerate(DETUNINGS):
            omega_l = w0 + det * g0
            ops.append(Op(
                j * self.block_size + i,
                {"d": d, "mu": (0.0, 0.8)[which], "detuning_gamma0": float(det)},
                lambda d=d, omega_l=omega_l, s=s:
                    interaction.scattering_rate_map(d, omega_l, s),
                _scattering_record))
        return ops


def _scattering_record(f) -> dict:
    record = _finite({"f_over_f0": float(f)})
    _require(record["f_over_f0"] > 0.0, "scattering rate is not positive")
    return record


# ---------------------------------------------------------------------------
# squeeze: simulate(s, damping, t_end) with the coupling computed inside

def _squeeze_record(traj) -> dict:
    vx, vp, vxp = traj.vx, traj.vp, traj.vxp
    _require(vx.size > 0, "empty trajectory")
    _require(bool(np.all(np.isfinite(vx)) and np.all(np.isfinite(vp))
                  and np.all(np.isfinite(vxp))), "non-finite covariance")
    _require(bool(np.all(vx > 0.0)), "V_x <= 0 at a recorded point")
    det = vx * vp - vxp * vxp
    worst = float(det.min())
    _require(worst >= 1.0 - 1e-9, f"det V = {worst!r} < 1")
    return {"min_vx": float(vx.min())}


class Squeeze:
    """Block = 6 ops at the operating point (d = 18 nm, mu = 0.8): t_end in
    each of 6 log-spaced strata of 0.3-3 us, in a seeded order; the damping
    model alternates between strata and between blocks; Q log-uniform over
    5e3-5e4.  The position inside a stratum follows a Kronecker sequence over
    blocks, so every block holds nearly the same work.  Blocks are short, so
    a run holds 6-8 of them and the tail percentile falls at nearly the same
    place inside one stratum whatever the number of blocks."""

    strata = 6
    block_size = strata
    tail_percentile = 70
    rtol = {"min_vx": RTOL_MIN_VX}

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self._seed = seed
        self._t_offsets = rng.random(self.strata)
        self._q_offset = rng.random()
        self.base = reference_scenario()

    def block(self, j: int) -> list[Op]:
        ops = []
        order = np.random.default_rng((self._seed, j)).permutation(self.strata)
        for i, stratum in enumerate(map(int, order)):
            k = j * self.block_size + i
            u = (stratum + _kronecker(self._t_offsets[stratum], j)) \
                / self.strata
            t_end = _log_uniform(0.3e-6, 3e-6, u)
            quality = _log_uniform(5e3, 5e4, _kronecker(self._q_offset, k))
            kind = ("momentum", "symmetric")[(stratum + j) % 2]
            s = replace(self.base, mechanics=replace(self.base.mechanics,
                                                     quality=quality))
            ops.append(Op(k, {"damping": kind, "quality": quality, "t_end": t_end},
                          lambda s=s, kind=kind, t_end=t_end:
                              dynamics.simulate(s, kind, t_end),
                          _squeeze_record))
        return ops


WORKLOADS = {
    "coupling_grid": CouplingGrid,
    "scattering_map": ScatteringMap,
    "squeeze": Squeeze,
}


class ReferenceMismatch(RuntimeError):
    """reference.json does not describe the inputs this workload generates."""


@dataclass
class Outcome:
    op: Op
    start: float                # perf_counter when the library call began, s
    ms: float                   # wall time of the library call
    ok: bool
    wrong: bool = False         # a result failed its check, or an untyped error
    error: str | None = None


def execute(op: Op, references: list | None, rtol: dict) -> Outcome:
    """Run one op, time the library call, check what it returned."""
    t0 = perf_counter()
    try:
        result = op.run()
    except TYPED_ERRORS as exc:
        return Outcome(op, t0, 1e3 * (perf_counter() - t0), False,
                       error=f"{type(exc).__name__}: {exc}")
    except Exception as exc:
        traceback.print_exc()
        return Outcome(op, t0, 1e3 * (perf_counter() - t0), False, wrong=True,
                       error=f"untyped {type(exc).__name__}: {exc}")
    ms = 1e3 * (perf_counter() - t0)
    try:
        record = op.check(result)
        if references is not None and op.index < len(references):
            ref = references[op.index]
            if ref["inputs"] != op.inputs:
                raise ReferenceMismatch(
                    f"reference.json op {op.index} has inputs "
                    f"{ref['inputs']}, the workload {op.inputs}")
            # a reference stored as an error (None) has nothing to compare:
            # a later fix of that failure is not a wrong output
            for key, tol in rtol.items() if ref["values"] else ():
                _close(record[key], ref["values"][key], tol, key)
    except CheckError as exc:
        return Outcome(op, t0, ms, False, wrong=True,
                       error=f"CheckError: {exc}")
    return Outcome(op, t0, ms, True)
