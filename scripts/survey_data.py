#!/usr/bin/env python3
"""Emit the CSV survey data behind the headline results.

Writes into --outdir (default ./figures):
    conductivity_vs_mu.csv       sigma(omega0) vs Fermi energy
    scattering_map_mu0.csv       radiative scattering map, undoped sheet
    scattering_map_mu08.csv      same at mu = 0.8 hbar*omega0
    sensitivity_grid.csv         kappa^-1 and merit on a (d, mu) grid
    gradient_vs_distance.csv     |g(d)| at mu = 0.8
    squeezing_trajectories.csv   conditional V_x(t), both damping models,
                                 Q = 5e3 and Q = 5e4

--quick shrinks every grid for a fast smoke run.  Each file is written by
the command-line tool's writer, in its format: a '#' header echoing the
command and the scenario, each row as it is computed, numbers to 13 digits
and a non-finite value as an empty cell.  A failed point ends its file after
the rows before it, and the script exits as the tool does, naming the file.
A scattering map computes a whole row of detunings from one pass at its
distance, so a failed pass ends the map after the rows of the distances
before it, never in the middle of a row.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import casimir_sense as cs
from casimir_sense import cli


def scattering_map(s, ds, detunings):
    """Rows of f/f0 over d (m) x the laser detunings (rad/s), d outer; one
    Casimir pass per distance serves its whole row."""
    w0, gamma0 = s.emitter.omega0, s.emitter.gamma0
    for d in ds:
        f = cs.scattering_rate_map(d, w0 + detunings, s)
        yield from ((d, det / gamma0, f_d) for det, f_d in zip(detunings, f))


def gradient(s, ds):
    """Rows of |g| at each distance of ds (m)."""
    return ((d, abs(cs.interaction_and_gradient(d, s.emitter,
                                                s.graphene)[1].g_value))
            for d in ds)


def squeezing(s, quick):
    """Rows of the conditional trajectories, both damping kinds at Q = 5e3
    (0.3 us) and Q = 5e4 (3 us), each a tenth as long under --quick."""
    for quality, t_end in ((5e3, 0.3e-6), (5e4, 3e-6)):
        s_q = replace(s, mechanics=replace(s.mechanics, quality=quality))
        for kind in ("momentum", "symmetric"):
            traj = cs.simulate(s_q, kind, t_end=t_end / (10 if quick else 1),
                               record_every=20)
            yield from ((quality, kind, *row) for row in
                        zip(traj.t, traj.vx, traj.vp, traj.vxp))


def tables(s, quick):
    """(file name, scenario of its header, columns, rows) of each file."""
    n = 6 if quick else 41
    ds = np.geomspace(8e-9, 60e-9, n)
    yield ("conductivity_vs_mu.csv", s, *cli.conductivity_table(
        s, np.linspace(0.0, 1.2, 13 if quick else 121), s.emitter.omega0))
    detunings = np.linspace(-4000, 1000, n) * s.emitter.gamma0
    for tag, mu in (("mu0", 0.0), ("mu08", 0.8)):
        s_mu = cli.with_mu(s, mu)
        yield (f"scattering_map_{tag}.csv", s_mu,
               ["d_m", "laser_detuning_gamma0", "f_over_f0"],
               scattering_map(s_mu, ds, detunings))
    m = 5 if quick else 21
    yield ("sensitivity_grid.csv", s, *cli.sensitivity_table(
        s, np.geomspace(8e-9, 60e-9, m), np.linspace(0.1, 1.1, m)))
    yield ("gradient_vs_distance.csv", s, ["d_m", "g_abs_rad_s_per_m"],
           gradient(s, ds))
    yield ("squeezing_trajectories.csv", s,
           ["quality_factor", "damping", "t_s", "vx", "vp", "vxp"],
           squeezing(s, quick))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    outdir = Path(args.outdir)
    code = cli.report(lambda: outdir.mkdir(parents=True, exist_ok=True), "")
    if code:
        return code
    command = ["survey_data.py", *argv]
    for name, s, columns, rows in tables(cs.reference_scenario(), args.quick):
        path = outdir / name
        code = cli.report(lambda: cli.write_csv(path, s, command, columns,
                                                rows), f"{path}: ")
        if code:
            return code
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
