"""Truncated-Hilbert-space check of the Gaussian conditional dynamics.

The membrane alone is simulated in a Fock space (dimension 30) under the
discrete model of the stepper oracle (stepper_oracle.py): per step, a
Gaussian Kraus measurement of x with pointer resolution set by
kappa_det sqrt(tau), a dephasing channel for the undetected scattering, then
free rotation.  Homodyne outcomes are sampled exactly (position eigenvalue
from the state's own distribution plus vacuum pointer noise), so this is a
genuine stochastic-trajectory reference with no Gaussian assumptions.  For
linear dynamics the conditional covariance is record independent, which is
what makes the comparison deterministic.  The exact engine differs from the
discrete model by its O(tau) discretization error, 4e-4 here.
"""

import math

import numpy as np

from casimir_sense.dynamics import StepConfig, simulate_conditional

DIM = 30


def hilbert_oracle(omega_m, kappa_det, kappa_n, t_end, tau, seed=7,
                   record_every=25):
    rng = np.random.default_rng(seed)
    a = np.diag(np.sqrt(np.arange(1, DIM)), 1)
    x = (a + a.conj().T) / math.sqrt(2)        # vacuum <x^2> = 1/2
    p = (a - a.conj().T) / (1j * math.sqrt(2))
    xi, basis = np.linalg.eigh(x)

    lam_d = kappa_det * math.sqrt(tau)
    lam_n = kappa_n * math.sqrt(tau)
    dephase = np.exp(-lam_n**2 * np.subtract.outer(xi, xi) ** 2 / 4.0)
    phases = np.exp(-1j * omega_m * tau * np.arange(DIM))

    rho = np.zeros((DIM, DIM), dtype=complex)
    rho[0, 0] = 1.0
    n_steps = int(round(t_end / tau))
    records = []
    t = 0.0
    for i in range(n_steps):
        rr = basis.conj().T @ rho @ basis      # position eigenbasis
        rr *= dephase
        pop = np.clip(np.diag(rr).real, 0.0, None)
        pop /= pop.sum()
        outcome = lam_d * rng.choice(xi, p=pop) + rng.normal(0.0, math.sqrt(0.5))
        kraus = np.exp(-((outcome - lam_d * xi) ** 2) / 2.0)
        rr = (kraus[:, None] * rr) * kraus[None, :]
        rho = basis @ rr @ basis.conj().T
        rho /= np.trace(rho).real
        rho = (phases[:, None] * rho) * phases[None, :].conj()
        t += tau
        if (i + 1) % record_every == 0:
            mx = np.trace(rho @ x).real
            mp = np.trace(rho @ p).real
            vxx = 2 * (np.trace(rho @ x @ x).real - mx * mx)
            vpp = 2 * (np.trace(rho @ p @ p).real - mp * mp)
            cxp = np.trace(rho @ (x @ p + p @ x)).real - 2 * mx * mp
            c, s = math.cos(omega_m * t), math.sin(omega_m * t)
            rot = np.array([[c, -s], [s, c]])
            cov = rot @ np.array([[vxx, cxp], [cxp, vpp]]) @ rot.T
            records.append((t, cov[0, 0]))
    return np.array(records)


def test_gaussian_engine_matches_hilbert_space_oracle():
    omega_m = 1.0
    kappa_ideal_sq = 0.1 * omega_m         # weak measurement per period
    nu = 0.6
    kappa_det = math.sqrt(kappa_ideal_sq * nu)
    kappa_n = math.sqrt(kappa_ideal_sq * (1 - nu))
    tau = 5e-3
    t_end = 4 * math.pi                     # two mechanical periods

    ref = hilbert_oracle(omega_m, kappa_det, kappa_n, t_end, tau)

    cfg = StepConfig(omega_m=omega_m, damping="momentum", gamma=0.0,
                     n_th=0.0, kappa_det=kappa_det, kappa_n=kappa_n)
    traj = simulate_conditional(cfg, t_end=t_end, tau=tau, record_every=25)

    vx_gauss = np.interp(ref[:, 0], traj.t, traj.vx)
    rel = np.abs(ref[:, 1] / vx_gauss - 1.0)
    assert rel.max() < 0.05
    # the agreement should in fact be much tighter than the 5% gate
    assert rel.max() < 5e-3


def test_oracle_sees_conditional_squeezing():
    records = hilbert_oracle(1.0, math.sqrt(0.3), 0.0, 4 * math.pi, 5e-3)
    assert records[:, 1].min() < 1.0
