"""Command-line front end: single-point computations and grid sweeps to CSV.

Subcommands, with the scenario overrides each takes (those its rows read)
    conductivity   sigma(omega)/sigma0 versus Fermi energy at fixed omega
    interaction    shifts, decay channels and gradient versus distance; --mu
    sensitivity    kappa^-1 and merit on a (d, mu) grid; --epsilon, --eta-det
    squeeze        conditional variance under homodyne monitoring; all four:
                   --distance, --mu, --epsilon, --eta-det

Each also takes --config and --out, every flag by its full name only.  The
scenario depends on the command line alone: flags > --config > reference
point.  Every CSV starts with a '#' header echoing the command line, quoted
for a shell, and the resolved scenario, so an output file is reproducible
from itself.  Exit codes: 0 ok, 2 usage or config, 3 numerical failure, 4
physicality violation; a sweep keeps the rows before a failed point.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from . import __version__
from .dynamics import PhysicalityError, simulate
from .graphene import sigma_real_axis
from .interaction import interaction_and_gradient
from .measurement import evaluate_coupling
from .params import (ConfigError, ScenarioParams, load_scenario,
                     reference_scenario, scenario_to_config)
from .quadrature import NumericsError

USAGE_ERROR, NUMERICAL_ERROR, PHYSICALITY_ERROR = 2, 3, 4


def with_mu(s: ScenarioParams, mu: float) -> ScenarioParams:
    """s at Fermi energy mu (units of hbar*omega0), its loss rate kept."""
    return replace(s, graphene=replace(s.graphene, mu=mu * s.emitter.omega0))


#: scenario override flags: help text, how the value enters the scenario s
_OVERRIDES = {
    "--distance": ("override distance, m",
                   lambda s, v: replace(s, distance=v)),
    "--mu": ("override Fermi energy, units of hbar*omega0", with_mu),
    "--epsilon": ("override drive epsilon",
                  lambda s, v: replace(s, drive=replace(s.drive, epsilon=v))),
    "--eta-det": ("override collection efficiency",
                  lambda s, v: replace(s, drive=replace(s.drive, eta_det=v))),
}


def _resolve_scenario(args) -> ScenarioParams:
    s = reference_scenario()
    if args.config is not None:
        with open(args.config) as fh:
            s = load_scenario(fh.read())
    for flag, (_, apply) in _OVERRIDES.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            s = apply(s, value)
    return s


def _axis(args, name: str) -> np.ndarray:
    """The --<name>-min/-max/-count grid, log-spaced under --log-<name>."""
    lo, hi, count = (getattr(args, f"{name}_{end}")
                     for end in ("min", "max", "count"))
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
    return f"{x:.12e}" if np.isfinite(x) else ""


def write_csv(out, s: ScenarioParams, argv: list[str], columns: list[str],
              rows, footer: str | None = None) -> None:
    """Write the '#' header echoing the command line ``argv`` and the
    scenario, the column names, each row as it is drawn from ``rows`` and a
    closing footer line to the path ``out``, or stdout if it is None.  A row
    that raises ends the file after the rows before it."""
    with open(out, "w") if out else nullcontext(sys.stdout) as fh:
        fh.write(f"# casimir-sense {__version__}\n")
        fh.write(f"# command: {shlex.join(argv)}\n")
        for line in scenario_to_config(s).splitlines():
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")
        if footer is not None:
            fh.write(footer + "\n")


def conductivity_table(s: ScenarioParams, mus, omega: float):
    """Columns and rows of sigma(omega)/sigma0, omega in rad/s, at each Fermi
    energy of ``mus`` (units of hbar*omega0).  The values are computed here,
    so a bad omega fails before a file is opened."""
    vals = [sigma_real_axis(omega, with_mu(s, mu).graphene) for mu in mus]
    return (["mu_over_hbar_omega0", "re_sigma_sigma0", "im_sigma_sigma0"],
            [(mu, v.real, v.imag) for mu, v in zip(mus, vals)])


def sensitivity_table(s: ScenarioParams, ds, mus):
    """Columns and lazy rows of kappa^-1 and the merit at each distance of
    ``ds`` (m) and Fermi energy of ``mus``, row-major with d outer."""
    at_mu = [(mu, with_mu(s, mu)) for mu in mus]
    points = ((d, mu, evaluate_coupling(replace(s_mu, distance=d))[2])
              for d in ds for mu, s_mu in at_mu)
    return (["d_m", "mu_over_hbar_omega0", "kappa_inv_m_rthz", "merit",
             "quantum_regime"],
            ((d, mu, cr.kappa_inv_si, cr.merit,
              "true" if cr.merit > 1.0 else "false")
             for d, mu, cr in points))


def report(call, where: str) -> int:
    """Run call(): 0 if it returns, else the exit code of the error it raises,
    which goes to stderr after ``where``."""
    try:
        call()
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {where}{exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericsError as exc:
        print(f"numerical failure: {where}{exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except PhysicalityError as exc:
        print(f"physicality violation: {where}{exc}", file=sys.stderr)
        return PHYSICALITY_ERROR
    return 0


# ---------------------------------------------------------------------------
# subcommands

def cmd_conductivity(args, s, argv) -> None:
    write_csv(args.out, s, argv, *conductivity_table(
        s, _axis(args, "mu"), args.omega * s.emitter.omega0))


def cmd_interaction(args, s, argv) -> None:
    points = ((d, *interaction_and_gradient(d, s.emitter, s.graphene))
              for d in _axis(args, "d"))
    write_csv(args.out, s, argv,
              ["d_m", "delta_g_rad_s", "delta_e_rad_s", "delta_omega_rad_s",
               "gamma_rad_s", "gamma_rad_rad_s", "gamma_nonrad_rad_s",
               "g_abs_rad_s_per_m"],
              ((d, ir.delta_g, ir.delta_e, ir.delta_omega, ir.gamma,
                ir.gamma_rad, ir.gamma_nonrad, abs(cg.g_value))
               for d, ir, cg in points))


def cmd_sensitivity(args, s, argv) -> None:
    write_csv(args.out, s, argv,
              *sensitivity_table(s, _axis(args, "d"), _axis(args, "mu")))


def cmd_squeeze(args, s, argv) -> None:
    traj = simulate(s, args.damping, args.t_end, tau=args.tau,
                    record_every=args.record_every)
    t_min, v_min = traj.min_vx()
    summary = f"# summary: min_vx = {v_min:.6e} at t = {t_min:.6e} s"
    write_csv(args.out, s, argv, ["t_s", "vx", "vp", "vxp", "frame",
                                  "damping"],
              ((*row, "rotating", args.damping)
               for row in zip(traj.t, traj.vx, traj.vp, traj.vxp)),
              footer=summary)
    if args.out:
        print(summary.lstrip("# "), file=sys.stderr)


# ---------------------------------------------------------------------------

def _add_common(p, *overrides: str):
    """--config, --out and the scenario override flags ``overrides``."""
    p.add_argument("--config", help="scenario config file (INI)")
    p.add_argument("--out", help="output CSV path (default stdout)")
    for flag in overrides:
        p.add_argument(flag, type=float, help=_OVERRIDES[flag][0])


def _add_axis(p, name: str, lo: float, hi: float, count: int, *, log: bool):
    """The --<name>-min/-max/-count flags, and --log-<name> if ``log``."""
    p.add_argument(f"--{name}-min", type=float, default=lo)
    p.add_argument(f"--{name}-max", type=float, default=hi)
    p.add_argument(f"--{name}-count", type=int, default=count)
    if log:
        p.add_argument(f"--log-{name}", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="casimir-sense", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conductivity", help="sigma versus Fermi energy")
    _add_common(p)
    p.add_argument("--omega", type=float, default=1.0,
                   help="evaluation frequency, units of omega0")
    _add_axis(p, "mu", 0.0, 1.2, 121, log=False)
    p.set_defaults(func=cmd_conductivity)

    p = sub.add_parser("interaction", help="shifts and rates versus distance")
    _add_common(p, "--mu")
    _add_axis(p, "d", 5e-9, 50e-9, 10, log=True)
    p.set_defaults(func=cmd_interaction)

    p = sub.add_parser("sensitivity", help="kappa^-1 on a (d, mu) grid")
    _add_common(p, "--epsilon", "--eta-det")
    _add_axis(p, "d", 10e-9, 40e-9, 4, log=True)
    _add_axis(p, "mu", 0.2, 1.0, 5, log=False)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("squeeze", help="conditional squeezing trajectory")
    _add_common(p, *_OVERRIDES)
    p.add_argument("--damping", choices=("symmetric", "momentum"),
                   default="momentum")
    p.add_argument("--t-end", dest="t_end", type=float, default=3e-6,
                   help="simulated time, s")
    p.add_argument("--tau", type=float, default=None,
                   help="record-grid unit, s: record k is the covariance at "
                        "(k + 1) * (record_every * tau), the last one at the "
                        "multiple of tau nearest t_end (default: from the "
                        "fastest rate)")
    p.add_argument("--record-every", type=int)
    p.set_defaults(func=cmd_squeeze)
    for parser in (ap, *sub.choices.values()):
        parser.allow_abbrev = False     # no flag by a prefix of its name
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    return report(lambda: args.func(args, _resolve_scenario(args),
                                    ["casimir-sense", *argv]), "")


if __name__ == "__main__":
    sys.exit(main())
