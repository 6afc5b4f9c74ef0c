"""Command-line front end: single-point computations and grid sweeps to CSV.

Subcommands
    conductivity   sigma(omega)/sigma0 versus Fermi energy at fixed omega
    interaction    shifts, decay channels and gradient versus distance
    sensitivity    kappa^-1 and figure of merit on a (distance, mu) grid
    squeeze        conditional-variance trajectory under homodyne monitoring

Scenario resolution precedence: command-line flags > CASIMIR_SENSE_CONFIG
environment variable > built-in reference operating point.  Every CSV starts
with a '#' header echoing the resolved scenario, so an output file is
reproducible from itself.  Exit codes: 0 ok, 2 usage/config, 3 numerical
failure, 4 physicality violation; a sweep that fails at one point keeps the
rows before it.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from . import __version__
from .dynamics import PhysicalityError, simulate
from .graphene import sigma_real_axis
from .interaction import interaction_and_gradient
from .measurement import evaluate_coupling
from .params import (ConfigError, ENV_CONFIG, ScenarioParams, load_scenario,
                     reference_scenario, scenario_to_config)
from .quadrature import NumericsError

USAGE_ERROR, NUMERICAL_ERROR, PHYSICALITY_ERROR = 2, 3, 4


def _with_mu(s: ScenarioParams, mu: float) -> ScenarioParams:
    """s at Fermi energy mu (units of hbar*omega0), its loss rate and
    sigma_zero kept."""
    return replace(s, graphene=replace(s.graphene, mu=mu * s.emitter.omega0))


def _resolve_scenario(args) -> ScenarioParams:
    path = args.config if args.config is not None \
        else os.environ.get(ENV_CONFIG) or None
    if path is None:
        s = reference_scenario()
    else:
        with open(path) as fh:
            s = load_scenario(fh.read())
    if args.distance is not None:
        s = replace(s, distance=args.distance)
    if args.mu is not None:
        s = _with_mu(s, args.mu)
    if args.epsilon is not None:
        s = replace(s, drive=replace(s.drive, epsilon=args.epsilon))
    if args.eta_det is not None:
        s = replace(s, drive=replace(s.drive, eta_det=args.eta_det))
    if args.sigma_zero:
        s = replace(s, graphene=replace(s.graphene, sigma_zero=True))
    return s


def _axis(args, name: str) -> np.ndarray:
    """The --<name>-min/-max/-count grid, log-spaced under --log-<name>."""
    lo = getattr(args, f"{name}_min")
    hi = getattr(args, f"{name}_max")
    count = getattr(args, f"{name}_count")
    for end, value in (("min", lo), ("max", hi)):
        if not np.isfinite(value):
            raise ConfigError(f"--{name}-{end} must be finite, got {value}")
    if count < 1:
        raise ConfigError(f"--{name}-count must be >= 1")
    if count == 1:
        if lo != hi:
            raise ConfigError(f"--{name}-count 1 requires equal endpoints")
        return np.array([lo])
    if not lo < hi:
        raise ConfigError(f"--{name}-min must be < --{name}-max")
    if getattr(args, f"log_{name}", False):
        if lo <= 0:
            raise ConfigError(f"log scale needs positive --{name}-min")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _fmt(x) -> str:
    """A CSV cell: text as is, a number to 13 digits, empty if not finite."""
    if isinstance(x, str):
        return x
    if x != x or x in (float("inf"), float("-inf")):
        return ""
    return f"{x:.12e}"


def _write_csv(args, s: ScenarioParams, argv: list[str], columns: list[str],
               rows, footer: str | None = None) -> None:
    """Write the '#' header echoing the scenario, the column names, each row
    as it is drawn from ``rows`` and a closing footer line to --out or
    stdout.  A row that raises ends the file after the rows before it."""
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
        fh.write(f"# casimir-sense {__version__}\n")
        fh.write(f"# command: {' '.join(argv)}\n")
        for line in scenario_to_config(s).splitlines():
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")
        if footer is not None:
            fh.write(footer + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_conductivity(args, argv) -> int:
    s = _resolve_scenario(args)
    mus = _axis(args, "mu")
    omega = args.omega * s.emitter.omega0
    vals = [sigma_real_axis(omega, _with_mu(s, mu).graphene) for mu in mus]
    _write_csv(args, s, argv, ["mu_over_hbar_omega0", "re_sigma_sigma0",
                               "im_sigma_sigma0"],
               [(mu, v.real, v.imag) for mu, v in zip(mus, vals)])
    return 0


def cmd_interaction(args, argv) -> int:
    s = _resolve_scenario(args)
    ds = _axis(args, "d")
    # lazy, so a failed point keeps the rows written before it
    points = ((d, *interaction_and_gradient(d, s.emitter, s.graphene))
              for d in ds)
    _write_csv(args, s, argv,
               ["d_m", "delta_g_rad_s", "delta_e_rad_s", "delta_omega_rad_s",
                "gamma_rad_s", "gamma_rad_rad_s", "gamma_nonrad_rad_s",
                "g_abs_rad_s_per_m"],
               ((d, ir.delta_g, ir.delta_e, ir.delta_omega, ir.gamma,
                 ir.gamma_rad, ir.gamma_nonrad, abs(cg.g_value))
                for d, ir, cg in points))
    return 0


def cmd_sensitivity(args, argv) -> int:
    s = _resolve_scenario(args)
    ds = _axis(args, "d")
    mus = _axis(args, "mu")
    at_mu = [(mu, _with_mu(s, mu)) for mu in mus]
    points = ((d, mu, evaluate_coupling(replace(s_mu, distance=d))[2])
              for d in ds for mu, s_mu in at_mu)  # row-major: d outer
    _write_csv(args, s, argv, ["d_m", "mu_over_hbar_omega0",
                               "kappa_inv_m_rthz", "merit", "quantum_regime"],
               ((d, mu, cr.kappa_inv_si, cr.merit,
                 "true" if cr.merit > 1.0 else "false")
                for d, mu, cr in points))
    return 0


def cmd_squeeze(args, argv) -> int:
    s = _resolve_scenario(args)
    traj = simulate(s, args.damping, args.t_end, tau=args.tau,
                    record_every=args.record_every)
    t_min, v_min = traj.min_vx()
    summary = f"# summary: min_vx = {v_min:.6e} at t = {t_min:.6e} s"
    _write_csv(args, s, argv, ["t_s", "vx", "vp", "vxp", "frame", "damping"],
               ((*row, "rotating", args.damping)
                for row in zip(traj.t, traj.vx, traj.vp, traj.vxp)),
               footer=summary)
    if args.out:
        print(summary.lstrip("# "), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="scenario config file (INI)")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument("--distance", type=float, help="override distance, m")
    p.add_argument("--mu", type=float,
                   help="override Fermi energy, units of hbar*omega0")
    p.add_argument("--epsilon", type=float, help="override drive epsilon")
    p.add_argument("--eta-det", dest="eta_det", type=float,
                   help="override collection efficiency")
    p.add_argument("--sigma-zero", action="store_true",
                   help="force sigma = 0 (transparent sheet, test override)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="casimir-sense", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conductivity", help="sigma versus Fermi energy")
    _add_common(p)
    p.add_argument("--omega", type=float, default=1.0,
                   help="evaluation frequency, units of omega0")
    p.add_argument("--mu-min", type=float, default=0.0)
    p.add_argument("--mu-max", type=float, default=1.2)
    p.add_argument("--mu-count", type=int, default=121)
    p.set_defaults(func=cmd_conductivity)

    p = sub.add_parser("interaction", help="shifts and rates versus distance")
    _add_common(p)
    p.add_argument("--d-min", type=float, default=5e-9)
    p.add_argument("--d-max", type=float, default=50e-9)
    p.add_argument("--d-count", type=int, default=10)
    p.add_argument("--log-d", action="store_true")
    p.set_defaults(func=cmd_interaction)

    p = sub.add_parser("sensitivity", help="kappa^-1 on a (d, mu) grid")
    _add_common(p)
    p.add_argument("--d-min", type=float, default=10e-9)
    p.add_argument("--d-max", type=float, default=40e-9)
    p.add_argument("--d-count", type=int, default=4)
    p.add_argument("--log-d", action="store_true")
    p.add_argument("--mu-min", type=float, default=0.2)
    p.add_argument("--mu-max", type=float, default=1.0)
    p.add_argument("--mu-count", type=int, default=5)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("squeeze", help="conditional squeezing trajectory")
    _add_common(p)
    p.add_argument("--damping", choices=("symmetric", "momentum"),
                   default="momentum")
    p.add_argument("--t-end", dest="t_end", type=float, default=3e-6,
                   help="simulated time, s")
    p.add_argument("--tau", type=float, default=None,
                   help="record-grid unit, s: record k is the covariance at "
                        "(k + 1) * (record_every * tau), the last one at the "
                        "multiple of tau nearest t_end (default: from the "
                        "fastest rate)")
    p.add_argument("--record-every", dest="record_every", type=int,
                   default=None)
    p.set_defaults(func=cmd_squeeze)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, ["casimir-sense", *argv])
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except PhysicalityError as exc:
        print(f"physicality violation: {exc}", file=sys.stderr)
        return PHYSICALITY_ERROR


if __name__ == "__main__":
    sys.exit(main())
