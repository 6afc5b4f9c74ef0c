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

--quick shrinks every grid for a fast smoke run.
"""

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import casimir_sense as cs


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def conductivity(scenario, outdir, n):
    w0 = scenario.emitter.omega0
    rows = []
    for mu in np.linspace(0.0, 1.2, n):
        g = cs.GrapheneParams.from_fractions(mu, w0)
        val = cs.sigma_real_axis(w0, g)
        rows.append((mu, val.real, val.imag))
    write_csv(outdir / "conductivity_vs_mu.csv",
              ["mu_over_hbar_omega0", "re_sigma_sigma0", "im_sigma_sigma0"],
              rows)


def scattering_maps(scenario, outdir, n):
    w0 = scenario.emitter.omega0
    gamma0 = scenario.emitter.gamma0
    ds = np.geomspace(8e-9, 60e-9, n)
    detunings = np.linspace(-4000, 1000, n) * gamma0
    for tag, mu in (("scattering_map_mu0", 0.0), ("scattering_map_mu08", 0.8)):
        s = replace(scenario, graphene=cs.GrapheneParams.from_fractions(mu, w0))
        rows = []
        for d in ds:
            for det in detunings:
                rows.append((d, det / gamma0,
                             cs.scattering_rate_map(d, w0 + det, s)))
        write_csv(outdir / f"{tag}.csv",
                  ["d_m", "laser_detuning_gamma0", "f_over_f0"], rows)


def sensitivity(scenario, outdir, n):
    w0 = scenario.emitter.omega0
    rows = []
    for d in np.geomspace(8e-9, 60e-9, n):
        for mu in np.linspace(0.1, 1.1, n):
            s = replace(scenario, distance=d,
                        graphene=cs.GrapheneParams.from_fractions(mu, w0))
            _, _, cr = cs.evaluate_coupling(s)
            rows.append((d, mu, cr.kappa_inv_si, cr.merit, cr.merit > 1.0))
    write_csv(outdir / "sensitivity_grid.csv",
              ["d_m", "mu_over_hbar_omega0", "kappa_inv_m_rthz", "merit",
               "quantum_regime"], rows)


def gradient(scenario, outdir, n):
    rows = []
    for d in np.geomspace(8e-9, 60e-9, n):
        cg = cs.transition_gradient(d, scenario.emitter, scenario.graphene)
        rows.append((d, abs(cg.g_value)))
    write_csv(outdir / "gradient_vs_distance.csv", ["d_m", "g_abs_rad_s_per_m"], rows)


def squeezing(scenario, outdir, quick):
    rows = []
    for quality, t_end in ((5e3, 0.3e-6), (5e4, 3e-6)):
        s = replace(scenario, mechanics=replace(scenario.mechanics,
                                                quality=quality))
        coupling = cs.evaluate_coupling(s)
        for kind in ("momentum", "symmetric"):
            traj = cs.simulate(s, kind, t_end=t_end / (10 if quick else 1),
                               coupling=coupling, record_every=20)
            rows += [(quality, kind, t, vx, vp, vxp) for t, vx, vp, vxp in
                     zip(traj.t, traj.vx, traj.vp, traj.vxp)]
    write_csv(outdir / "squeezing_trajectories.csv",
              ["quality_factor", "damping", "t_s", "vx", "vp", "vxp"], rows)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = 6 if args.quick else 41
    scenario = cs.reference_scenario()
    conductivity(scenario, outdir, 121 if not args.quick else 13)
    scattering_maps(scenario, outdir, n)
    sensitivity(scenario, outdir, 5 if args.quick else 21)
    gradient(scenario, outdir, n)
    squeezing(scenario, outdir, args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
