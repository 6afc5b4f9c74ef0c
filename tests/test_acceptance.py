"""Acceptance suite: headline numbers, scaling laws and oracle gates.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Reference values are the published operating-point figures for
the d = 18 nm, mu = 0.8 hbar*omega0 scenario; derived gates use independent
oracles implemented in this test tree.
"""

import math
import time

import numpy as np
import pytest

import casimir_sense as cs
from casimir_sense.dynamics import StepConfig, simulate_conditional

from conftest import kk_sigma_imag_oracle
from shorttime_oracle import analytic_shorttime
from test_micro_oracle import hilbert_oracle

TWO_PI = 2 * math.pi


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}  {text}")
    return ok


@pytest.fixture(scope="module")
def timed_rates(ref_scenario):
    t0 = time.monotonic()
    ir = cs.decay_rates(ref_scenario.distance, ref_scenario.emitter, ref_scenario.graphene)
    return ir, time.monotonic() - t0


@pytest.fixture(scope="module")
def timed_gradient(ref_scenario):
    t0 = time.monotonic()
    cg = cs.transition_gradient(ref_scenario.distance, ref_scenario.emitter, ref_scenario.graphene)
    return cg, time.monotonic() - t0


@pytest.fixture(scope="module")
def squeezing_run(ref_scenario):
    """Long-window squeezing scenario: Q = 5e4, T = 1 K, momentum damping."""
    ir = cs.decay_rates(ref_scenario.distance, ref_scenario.emitter, ref_scenario.graphene)
    cg = cs.transition_gradient(ref_scenario.distance, ref_scenario.emitter, ref_scenario.graphene)
    cr = cs.kappa(ref_scenario, ir, cg)
    traj = cs.simulate(ref_scenario, "momentum", t_end=3e-6,
                       coupling=(ir, cg, cr), record_every=10)
    return traj, (ir, cg, cr)


def test_criterion_1_radiative_branching(timed_rates):
    ir, elapsed = timed_rates
    ratio = ir.gamma_rad / ir.gamma
    ok = abs(ratio - 0.54) <= 0.05 and elapsed < 5.0
    report(1, ok, f"Gamma_rad/Gamma = {ratio:.4f} (target 0.54 +- 0.05, "
                  f"{elapsed:.2f} s < 5 s)")
    assert abs(ratio - 0.54) <= 0.05
    assert elapsed < 5.0


def test_criterion_2_coupling_gradient(timed_gradient):
    cg, elapsed = timed_gradient
    g_ghz_per_nm = abs(cg.g_value) / TWO_PI * 1e-18
    ok = abs(g_ghz_per_nm - 16.0) <= 0.2 * 16.0 and elapsed < 10.0
    report(2, ok, f"|g| = 2pi x {g_ghz_per_nm:.2f} GHz/nm "
                  f"(target 2pi x 16 +- 20%, {elapsed:.2f} s < 10 s)")
    assert elapsed < 10.0
    assert abs(g_ghz_per_nm - 16.0) <= 0.2 * 16.0


def test_criterion_3_sensitivity(ref_scenario, timed_rates, timed_gradient):
    cr = cs.kappa(ref_scenario, timed_rates[0], timed_gradient[0])
    ok = abs(cr.kappa_inv_si - 5.6e-16) <= 0.2 * 5.6e-16
    report(3, ok, f"kappa^-1 = {cr.kappa_inv_si:.3e} m/sqrt(Hz) "
                  f"(target 5.6e-16 +- 20%); merit = {cr.merit:.2f}")
    assert abs(cr.kappa_inv_si - 5.6e-16) <= 0.2 * 5.6e-16
    assert cr.merit > 1.0          # quantum-regime condition at this point


def test_criterion_4_near_field_scaling(ref_scenario):
    g0 = cs.GrapheneParams.from_fractions(0.0, ref_scenario.emitter.omega0)
    ds = np.geomspace(5e-9, 20e-9, 6)
    shifts = np.array([abs(cs.decay_rates(d, ref_scenario.emitter, g0).delta_omega)
                       for d in ds])
    slope = np.polyfit(np.log(ds), np.log(shifts), 1)[0]
    ok = abs(slope + 4.0) <= 0.3
    report(4, ok, f"mu = 0 log-log slope of |delta_omega| = {slope:.2f} "
                  f"(target -4 +- 0.3)")
    assert abs(slope + 4.0) <= 0.3


def test_criterion_5_conductivity_regime_boundaries(ref_scenario):
    w0 = ref_scenario.emitter.omega0

    def sigma(mu_frac):
        g = cs.GrapheneParams.from_fractions(mu_frac, w0)
        return cs.sigma_real_axis(w0, g)

    step = sigma(0.499).real - sigma(0.501).real
    mus = np.linspace(0.52, 0.70, 181)
    ims = np.array([sigma(m).imag for m in mus])
    crossings = mus[:-1][np.diff(np.sign(ims)) > 0]
    ok = abs(step - 1.0) < 0.05 and len(crossings) == 1 \
        and abs(crossings[0] - 0.6) <= 0.05
    report(5, ok, f"Re sigma step at mu = 0.5: {step:.3f} sigma0; "
                  f"Im sigma sign change at mu = {crossings[0]:.3f} "
                  f"(target 0.6 +- 0.05)")
    assert abs(step - 1.0) < 0.05
    assert len(crossings) == 1 and abs(crossings[0] - 0.6) <= 0.05


def test_criterion_6_kramers_kronig_oracle(ref_scenario):
    w0 = ref_scenario.emitter.omega0
    worst = 0.0
    for mu_frac in (0.2, 0.8):
        g = cs.GrapheneParams.from_fractions(mu_frac, w0)
        for u in np.geomspace(1e-3, 1e3, 21) * w0:
            closed = cs.sigma_imag_axis(u, g) * cs.CONSTANTS.sigma0
            oracle = kk_sigma_imag_oracle(u, g)
            worst = max(worst, abs(closed / oracle - 1.0))
    ok = worst <= 1e-5
    report(6, ok, f"closed-form sigma(iu) vs dispersion integral: worst "
                  f"rel dev = {worst:.2e} (gate 1e-5)")
    assert worst <= 1e-5


def test_criterion_7_short_time_squeezing_oracle():
    t0 = time.monotonic()
    kappa2 = 1.0
    v0 = 2 * 2.084e4 + 1.0
    cfg = StepConfig(omega_m=kappa2 / 1e7, damping="momentum", gamma=0.0,
                     n_th=(v0 - 1) / 2, kappa_det=math.sqrt(kappa2),
                     kappa_n=0.0)  # nu = 1
    traj = simulate_conditional(cfg, t_end=50.0, tau=0.999e-2,
                                record_every=100)
    ref = np.array([analytic_shorttime(v0, v0, 1.0, t)[0]
                    for t in traj.t])
    worst = np.max(np.abs(traj.vx / ref - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 0.01 and elapsed < 5.0
    report(7, ok, f"gamma = 0, nu = 1 vs V_x = 1/(1/V0 + k^2 t): worst rel "
                  f"dev = {worst:.2e} up to k^2 t = 50 ({elapsed:.2f} s < 5 s)")
    assert worst <= 0.01
    assert elapsed < 5.0


def test_criterion_8_squeezing_reproduction(ref_scenario, squeezing_run):
    traj, coupling = squeezing_run
    t_min, v_min = traj.min_vx()
    ok_b = v_min < 1.0 and t_min <= 3e-6

    q5e3 = cs.ScenarioParams(
        emitter=ref_scenario.emitter, graphene=ref_scenario.graphene,
        mechanics=cs.MechanicalParams(
            omega_m=ref_scenario.mechanics.omega_m, mass=ref_scenario.mechanics.mass,
            quality=5e3, t_bath=ref_scenario.mechanics.t_bath),
        drive=ref_scenario.drive, distance=ref_scenario.distance)
    t_short = 0.05 / ref_scenario.mechanics.omega_m
    vx = {}
    for kind in ("momentum", "symmetric"):
        vx[kind] = cs.simulate(q5e3, kind, t_end=t_short,
                               coupling=coupling,
                               record_every=10**9).vx[-1]
    ok_a = vx["momentum"] < vx["symmetric"]
    ok = ok_a and ok_b
    report(8, ok, f"min V_x = {v_min:.3f} at t = {t_min*1e6:.2f} us (< 1 "
                  f"within 3 us); t = 0.05/omega_m: momentum "
                  f"{vx['momentum']:.2f} < symmetric {vx['symmetric']:.2f}")
    assert v_min < 1.0 and t_min <= 3e-6
    assert vx["momentum"] < vx["symmetric"]


def test_criterion_9_physicality_suite(ref_scenario, squeezing_run, timed_rates):
    traj, _ = squeezing_run
    dets = traj.vx * traj.vp - traj.vxp**2
    det_ok = bool(np.all(dets >= 1.0 - 1e-9))

    sum_ok = True
    for mu_frac in (0.0, 0.3, 0.8):
        g = cs.GrapheneParams.from_fractions(mu_frac, ref_scenario.emitter.omega0)
        for d in (5e-9, 18e-9, 50e-9):
            ir = cs.decay_rates(d, ref_scenario.emitter, g)
            sum_ok &= abs(ir.gamma - (ir.gamma_rad + ir.gamma_nonrad)) \
                <= 1e-9 * ir.gamma
    ok = det_ok and sum_ok
    report(9, ok, f"det(cov) >= 1 - 1e-9 at {len(dets)} recorded steps; "
                  f"Gamma = Gamma_rad + Gamma_nonrad to 1e-9 on the grid")
    assert det_ok
    assert sum_ok


def test_criterion_10_micro_oracle(ref_scenario):
    t0 = time.monotonic()
    omega_m = 1.0
    kappa_ideal_sq = 0.1 * omega_m
    nu = 0.6
    tau, t_end = 5e-3, 4 * math.pi
    kappa_det = math.sqrt(kappa_ideal_sq * nu)
    kappa_n = math.sqrt(kappa_ideal_sq * (1 - nu))
    ref = hilbert_oracle(omega_m, kappa_det, kappa_n, t_end, tau)
    cfg = StepConfig(omega_m=omega_m, damping="momentum", gamma=0.0,
                     n_th=0.0, kappa_det=kappa_det, kappa_n=kappa_n)
    traj = simulate_conditional(cfg, t_end=t_end, tau=tau, record_every=25)
    vx = np.interp(ref[:, 0], traj.t, traj.vx)
    worst = np.max(np.abs(ref[:, 1] / vx - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 0.05 and elapsed < 60.0
    report(10, ok, f"Gaussian V_x vs truncated-Hilbert-space oracle: worst "
                   f"rel dev = {worst:.2e} (gate 5%, {elapsed:.1f} s < 60 s)")
    assert worst <= 0.05
    assert elapsed < 60.0
