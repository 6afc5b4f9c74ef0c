import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import casimir_sense as cs
from casimir_sense.dynamics import (RiccatiError, StepConfig, default_tau,
                                    simulate_conditional, step_config_for)

from mobius_oracle import _hamiltonian, simulate_mobius
from shorttime_oracle import analytic_shorttime
from stepper_oracle import (ConditionalState, NoiseSpec, build_step,
                            lab_frame, measurement_update, simulate_stepper)
from test_interaction import _log_uniform


def config(omega_m=1.0, gamma=0.0, kind="momentum", kappa2=1.0, nu=1.0,
           n_th=0.0):
    """StepConfig with back-action rate kappa2 = kd^2 + kn^2, of which the
    detected share nu conditions the record."""
    return StepConfig(omega_m=omega_m, damping=kind, gamma=gamma, n_th=n_th,
                      kappa_det=math.sqrt(kappa2 * nu),
                      kappa_n=math.sqrt(kappa2 * (1.0 - nu)))


def unmeasured(cfg):
    """cfg with a record that conditions nothing, the back-action kept."""
    return replace(cfg, kappa_det=0.0,
                   kappa_n=math.hypot(cfg.kappa_det, cfg.kappa_n))


def test_step_config_rates(ref_scenario, ref_coupling):
    # the detected rate is kappa itself; both rates add up to the ideal
    # back-action kappa^2 at nu = 1, with or without detection
    ir, cg, _ = ref_coupling
    no_detection = replace(ref_scenario,
                           drive=replace(ref_scenario.drive, eta_det=0.0))
    for s in (ref_scenario, no_detection):
        cr = cs.kappa(s, ir, cg)
        cfg = step_config_for(s, "momentum")
        assert cfg.kappa_det == cr.kappa
        assert cfg.kappa_det**2 + cfg.kappa_n**2 == pytest.approx(
            s.mechanics.omega_m * cr.merit_ideal, rel=1e-12, abs=0)
        assert (cfg.damping, cfg.gamma, cfg.n_th) \
            == ("momentum", s.mechanics.gamma, s.mechanics.n_th)
    assert cfg.kappa_det == 0.0 < cfg.kappa_n


@pytest.mark.parametrize("field", ["omega_m", "kappa_det", "kappa_n",
                                   "gamma", "n_th"])
@pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
def test_step_config_rejects_a_bad_rate_by_name(field, value):
    # checked before any work, so a nan names its field instead of failing
    # later as another fault
    with pytest.raises(ValueError,
                       match=f"{field} must be non-negative and finite"):
        replace(config(), **{field: value})


def test_step_config_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="damping kind must be one of") \
            as exc:
        config(kind="critical")
    assert "'symmetric'" in str(exc.value)
    assert "'momentum'" in str(exc.value)


# ---------------------------------------------------------------------------
# trajectories of the exact engine

def test_ideal_limit_matches_analytic_shorttime():
    # gamma = 0, nu = 1, rotation negligible: V_x = 1/(1/V0 + kappa^2 t)
    kappa2 = 1.0
    for v0 in (1.0, 2 * 2.084e4 + 1):
        cfg = config(omega_m=kappa2 / 1e7, kappa2=kappa2, nu=1.0,
                     n_th=(v0 - 1) / 2)
        traj = simulate_conditional(cfg, t_end=50.0, tau=0.999e-2,
                                    record_every=500)
        vx_ref, vp_ref = analytic_shorttime(v0, v0, math.sqrt(kappa2),
                                            traj.t[-1])
        assert traj.vx[-1] == pytest.approx(vx_ref, rel=1e-2)
        assert traj.vp[-1] == pytest.approx(vp_ref, rel=1e-2)


def test_no_measurement_keeps_thermal_state_symmetric():
    # symmetric damping: the thermal state is the exact fixed point
    v0 = 2 * 5.0 + 1
    cfg = config(omega_m=1.0, gamma=0.05, kind="symmetric", kappa2=0.0,
                 n_th=5.0)
    traj = simulate_conditional(cfg, t_end=20.0, tau=5e-3, record_every=100)
    assert np.all(np.abs(traj.vx / v0 - 1) < 1e-3)
    assert np.all(np.abs(traj.vp / v0 - 1) < 1e-3)


def test_no_measurement_momentum_damping_relaxes_not_grows():
    # the momentum-damping noise block diag(1/(2n+1), 2n+1) is the minimal
    # completely positive choice (det = 1), whose fixed point sits near half
    # the thermal covariance; an unmeasured thermal state must relax toward
    # it, never grow, and barely move on the gamma*t << 1 scales simulated
    v0 = 2 * 5.0 + 1
    cfg = config(omega_m=1.0, gamma=0.05, kind="momentum", kappa2=0.0,
                 n_th=5.0)
    traj = simulate_conditional(cfg, t_end=40.0, tau=5e-3, record_every=100)
    assert np.all(traj.vx <= v0 * (1 + 1e-9))
    assert np.all(traj.vx >= v0 / 2 * 0.98)
    short = simulate_conditional(cfg, t_end=0.02, tau=5e-4, record_every=5)
    assert np.all(np.abs(short.vx / v0 - 1) < 2e-3)


def test_conditioning_never_exceeds_unconditional_variance():
    cfg = config(omega_m=1.0, gamma=0.02, kind="momentum", kappa2=0.5, nu=0.6,
                 n_th=8.0)
    kw = dict(t_end=12.0, tau=2e-3, record_every=50)
    cond = simulate_conditional(cfg, **kw)
    uncond = simulate_conditional(unmeasured(cfg), **kw)
    assert np.all(cond.vx <= uncond.vx * (1 + 1e-12))


def test_momentum_damping_beats_symmetric_at_short_times():
    # momentum damping cannot feed thermal noise into x faster than the
    # phase-space rotation allows, so early conditioning goes much deeper
    kw = dict(t_end=0.05, tau=1e-5, record_every=5000)
    v_mom = simulate_conditional(config(omega_m=1.0, gamma=0.3,
                                        kind="momentum", kappa2=600.0,
                                        n_th=1000.0),
                                 **kw).vx[-1]
    v_sym = simulate_conditional(config(omega_m=1.0, gamma=0.3,
                                        kind="symmetric", kappa2=600.0,
                                        n_th=1000.0),
                                 **kw).vx[-1]
    assert v_mom < v_sym


def test_physicality_abort():
    cfg = config(omega_m=1.0, kappa2=0.0)
    with pytest.raises(cs.PhysicalityError):
        simulate_conditional(cfg, t_end=0.1, tau=1e-3,
                             initial_cov=0.5 * np.eye(2), record_every=1)


def test_physicality_held_along_squeezing_run():
    cfg = config(omega_m=1.0, gamma=0.01, kind="momentum", kappa2=5.0, nu=0.7,
                 n_th=50.0)
    traj = simulate_conditional(cfg, t_end=10.0, tau=1e-3, record_every=20)
    dets = traj.vx * traj.vp - traj.vxp**2
    assert np.all(dets >= 1.0 - 1e-9)
    assert np.all(traj.vx * traj.vp >= 1.0 - 1e-9)


def test_closed_system_stays_stationary():
    # kappa = 0 and gamma = 0: the lab-frame covariance only rotates, which
    # the co-rotating frame undoes, for isotropic and squeezed states alike
    cfg = config(omega_m=1.0, gamma=0.0, kappa2=0.0, n_th=7.0)
    for cov in (15.0 * np.eye(2), np.array([[3.0, 0.4], [0.4, 0.5]])):
        traj = simulate_conditional(cfg, t_end=30.0, tau=5e-3,
                                    initial_cov=cov)
        assert np.allclose(traj.vx, cov[0, 0], rtol=1e-12, atol=0)
        assert np.allclose(traj.vp, cov[1, 1], rtol=1e-12, atol=0)
        assert np.allclose(traj.vxp, cov[0, 1], rtol=0, atol=1e-12 * 15.0)


def test_engine_matches_exponential_from_t_zero():
    # one Mobius map exp(H t) from t = 0 per record, by scipy
    from scipy.linalg import expm

    for kind in ("momentum", "symmetric"):
        cfg = config(omega_m=1.0, gamma=0.05, kind=kind, kappa2=2.0, nu=0.7,
                     n_th=3.0)
        traj = simulate_conditional(cfg, t_end=4.0, tau=1e-3, record_every=97)
        ham = _hamiltonian(cfg, measure=True)
        v0 = 7.0 * np.eye(2)
        for t, vx, vp, vxp in zip(traj.t, traj.vx, traj.vp, traj.vxp):
            phi = expm(ham * t)
            lab = (phi[:2, :2] @ v0 + phi[:2, 2:]) \
                @ np.linalg.inv(phi[2:, :2] @ v0 + phi[2:, 2:])
            c, s = math.cos(t), math.sin(t)
            rot = np.array([[c, -s], [s, c]])
            ref = rot @ lab @ rot.T
            assert np.allclose([[vx, vxp], [vxp, vp]], ref, rtol=1e-12,
                               atol=1e-12)


def test_propagator_matches_scipy_expm(ref_scenario):
    from scipy.linalg import expm

    cfg = step_config_for(ref_scenario, "momentum")
    ham = _hamiltonian(cfg, measure=True)
    for dt in (0.0, 1e-10, 1e-9, 1e-7):    # 0 to 6 squarings
        ref = expm(ham * dt)
        assert np.abs(cs.dynamics.build_step(ham, dt) - ref).max() \
            <= 1e-14 * np.abs(ref).max()


def _assert_matches_oracle(traj, ref):
    # V_x and V_p relative to themselves, V_xp relative to max |V|
    scale = np.maximum(np.maximum(np.abs(ref.vx), np.abs(ref.vp)),
                       np.abs(ref.vxp))
    assert np.array_equal(traj.t, ref.t)
    assert np.abs(traj.vx / ref.vx - 1.0).max() <= 1e-10
    assert np.abs(traj.vp / ref.vp - 1.0).max() <= 1e-10
    assert np.abs((traj.vxp - ref.vxp) / scale).max() <= 1e-10


@pytest.mark.parametrize("measure", [True, False])
@pytest.mark.parametrize("nu", [0.0, 0.7])
@pytest.mark.parametrize("kappa2", [0.0, 2.0])
@pytest.mark.parametrize("gamma", [0.0, 0.02])
@pytest.mark.parametrize("kind", ["momentum", "symmetric"])
def test_closed_form_matches_mobius_oracle(kind, gamma, kappa2, nu, measure):
    # gamma = kappa2 = 0 is the undamped, unmeasured system with D = 0;
    # gamma = 0, kappa2 = 2 with nu = 0 or unmeasured has D != 0 but no
    # conditioning, so no steady state.  Unmeasured, the engine runs the
    # unmeasured config and the oracle drops its conditioning term itself.
    cfg = config(omega_m=1.0, gamma=gamma, kind=kind, kappa2=kappa2, nu=nu,
                 n_th=3.0)
    engine_cfg = cfg if measure else unmeasured(cfg)
    covs = (None, np.diag([0.25, 4.0]), np.array([[3.0, 0.4], [0.4, 0.5]]))
    for cov in covs:
        for record_every in (1, 7):       # 7 leaves a remainder record
            kw = dict(t_end=6.0, tau=1e-2, initial_cov=cov,
                      record_every=record_every)
            _assert_matches_oracle(simulate_conditional(engine_cfg, **kw),
                                   simulate_mobius(cfg, measure=measure,
                                                   **kw))


@pytest.mark.parametrize("kind, kappa2, nu", [
    ("momentum", 3.8e5, 2.4e-120),      # Newton-Kleinman did not converge
    ("symmetric", 1e-3, 1.4e-45),       # kappa_det^2 = 1.4e-48: det -1e9
    ("momentum", 1.0, 1e-310)])         # subnormal kappa_det^2: nan drift
def test_vanishing_conditioning_gives_the_unconditioned_covariance(kind,
                                                                   kappa2,
                                                                   nu):
    # the conditioning moves V by less than a rounding unit over the run
    for n_th, t_end, v_0 in ((0.0, 30.0, 1.0), (3.0, 6.0, 10.0)):
        cfg = config(omega_m=1.0, gamma=0.0, kind=kind, kappa2=kappa2, nu=nu,
                     n_th=n_th)
        assert 0.0 < cfg.kappa_det**2 < 1e-40
        kw = dict(t_end=t_end, tau=default_tau(cfg),
                  initial_cov=v_0 * np.eye(2))
        traj = simulate_conditional(cfg, **kw)
        rows = np.array([traj.t, traj.vx, traj.vp, traj.vxp])
        assert np.all(np.isfinite(rows))
        assert np.all(traj.vx * traj.vp - traj.vxp**2 >= 1.0 - 1e-9)
        free = simulate_conditional(unmeasured(cfg), **kw)
        assert np.array_equal(rows, [free.t, free.vx, free.vp, free.vxp])


@pytest.mark.parametrize("kind, kappa2, nu, n_th, t_end", [
    ("symmetric", 2e5, 1e-32, 0.2, 28.0),
    ("momentum", 5e4, 1e-27, 0.6, 16.0),
    ("momentum", 3.9e3, 7e-22, 160.0, 4.0)])
def test_weak_conditioning_matches_mobius_oracle(kind, kappa2, nu, n_th,
                                                 t_end):
    # kappa_det^2 from 2e-27 to 3e-18 omega_m: V* + E D0 (I + W D0)^-1 E^T
    # would cancel to a few digits, or to a negative det
    cfg = config(omega_m=1.0, gamma=0.0, kind=kind, kappa2=kappa2, nu=nu,
                 n_th=n_th)
    kw = dict(t_end=t_end, tau=default_tau(cfg))
    _assert_matches_oracle(simulate_conditional(cfg, **kw),
                           simulate_mobius(cfg, **kw))


def test_closed_form_matches_mobius_oracle_at_operating_point(ref_scenario):
    # n_th = 2.08e4, conditioned from 4e4 to below vacuum within 3 us
    for kind in ("momentum", "symmetric"):
        cfg = step_config_for(ref_scenario, kind)
        tau = default_tau(cfg)
        for t_end in (0.3e-6, 3e-6):
            kw = dict(t_end=t_end, tau=tau)
            _assert_matches_oracle(simulate_conditional(cfg, **kw),
                                   simulate_mobius(cfg, **kw))


@pytest.mark.parametrize("records", [4000, 40000])
def test_memory_bounded_beyond_output(records):
    # record times are evaluated in blocks, so the working set beyond the
    # returned arrays does not grow with the number of records
    cfg = config(omega_m=1.0, gamma=0.02, kappa2=2.0, nu=0.7, n_th=3.0)
    kw = dict(t_end=records * 1e-3, tau=1e-3, record_every=1)
    simulate_conditional(cfg, **kw)
    tracemalloc.start()
    try:
        traj = simulate_conditional(cfg, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.t) == records
    output = sum(a.nbytes for a in (traj.t, traj.vx, traj.vp, traj.vxp))
    assert peak - output <= 512 * 1024


def test_records_are_labelled_with_their_evaluation_times(monkeypatch):
    # record k is the covariance at (k + 1) (record_every tau) and the last
    # one at n_steps tau, across blocks of 7 records, with and without a
    # remainder record
    monkeypatch.setattr(cs.dynamics, "_STAMP_BLOCK", 7)
    cfg = config(omega_m=1.0, gamma=0.01, kappa2=1.0, nu=0.5, n_th=2.0)
    tau = 1.3e-3
    for record_every in (1, 3, 7, 10, 50):
        traj = simulate_conditional(cfg, t_end=40 * tau, tau=tau,
                                    record_every=record_every)
        assert len(traj.t) == -(-40 // record_every)
        assert [traj.t[k] for k in range(len(traj.t) - 1)] \
            == [(k + 1) * (record_every * tau) for k in range(len(traj.t) - 1)]
        assert traj.t[-1] == 40 * tau
        # a single record at the label reproduces the recorded covariance
        for k in (0, len(traj.t) // 2, len(traj.t) - 1):
            one = simulate_conditional(cfg, t_end=traj.t[k], tau=traj.t[k])
            assert one.t[0] == traj.t[k]
            assert one.vx[0] == pytest.approx(traj.vx[k], rel=1e-14)
            assert one.vp[0] == pytest.approx(traj.vp[k], rel=1e-14)


def _mpmath_trajectory(cfg, cov, times, dps=40):
    """Co-rotating E V0 E^T + int_0^t E D E^T ds without conditioning, at
    ``dps`` digits.  The integral is Van Loan's (IEEE TAC 23, 395 (1978)):
    exp([[-A, D], [0, A^T]] t) = [[., F12], [0, F22]] gives
    int_0^t E D E^T ds = F22^T F12, with A and D from the Mobius oracle."""
    import mpmath as mp

    ham = _hamiltonian(cfg, measure=False)
    rows = []
    with mp.workdps(dps):
        block = mp.zeros(4, 4)
        for i in range(2):
            for j in range(2):
                block[i, j] = -ham[i, j]
                block[i, j + 2] = ham[i, j + 2]
                block[i + 2, j + 2] = ham[j, i]
        v0 = mp.matrix(np.asarray(cov, dtype=float).tolist())
        for t in times:
            prop = mp.expm(block * mp.mpf(t))
            e = prop[2:4, 2:4].T
            v = e * v0 * e.T + e * prop[0:2, 2:4]
            phase = cfg.omega_m * mp.mpf(t)
            c, s = mp.cos(phase), mp.sin(phase)
            rows.append([float(c * c * v[0, 0] - 2 * c * s * v[0, 1]
                               + s * s * v[1, 1]),
                         float(s * s * v[0, 0] + 2 * c * s * v[0, 1]
                               + c * c * v[1, 1]),
                         float(c * s * (v[0, 0] - v[1, 1])
                               + (c * c - s * s) * v[0, 1])])
    vx, vp, vxp = np.array(rows).T
    return cs.Trajectory(t=np.asarray(times), vx=vx, vp=vp, vxp=vxp)


@pytest.mark.parametrize("kind, gamma, kappa2", [
    ("momentum", 1e-6, 2.0), ("momentum", 1e-6, 1e6),
    ("symmetric", 1e-6, 2.0), ("symmetric", 1e-6, 1e6),
    ("momentum", 0.0, 2.0), ("momentum", 0.0, 1e6),
    ("symmetric", 0.0, 2.0), ("symmetric", 0.0, 1e6),
    ("momentum", 2.0, 2.0), ("momentum", 2.0 * (1 + 1e-9), 2.0),
    ("momentum", 2.0 * (1 - 1e-9), 2.0)])
def test_unconditioned_solution_matches_mpmath(kind, gamma, kappa2):
    # no conditioning (nu = 0, so kappa_n^2 = kappa2) and n_th = 0: weak
    # damping under strong back-action, no damping, and critical damping of
    # the momentum model, at times on both sides of the Taylor radius
    cfg = config(omega_m=1.0, gamma=gamma, kind=kind, kappa2=kappa2, nu=0.0)
    cov = np.array([[3.0, 0.4], [0.4, 0.5]])
    traj = simulate_conditional(cfg, t_end=6.0, tau=1e-2, initial_cov=cov,
                                record_every=1)
    picked = [0, 1, 4, 12, 24, 25, 49, 50, 99, 299, 599]
    ref = _mpmath_trajectory(cfg, cov, traj.t[picked])
    _assert_matches_oracle(cs.Trajectory(
        t=traj.t[picked], vx=traj.vx[picked], vp=traj.vp[picked],
        vxp=traj.vxp[picked]), ref)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["momentum", "symmetric"]),
       gamma=st.one_of(st.sampled_from([0.0, 2.0]), st.floats(0.0, 10.0)),
       kappa2=st.floats(0.0, 1e6), nu=st.floats(0.0, 1.0),
       measure=st.booleans(), n_th=st.floats(0.0, 1e4),
       v_0=st.floats(1.0, 100.0), squeeze=st.floats(0.0, 2.0),
       angle=st.floats(0.0, math.pi), t_end=st.floats(1e-3, 30.0))
def test_dynamics_corner_of_the_parameter_box(kind, gamma, kappa2, nu,
                                              measure, n_th, v_0, squeeze,
                                              angle, t_end):
    # in units of omega_m: any damping up to gamma = 10 omega_m (critical
    # damping of the momentum model included), back-action up to 1e6
    # omega_m, with or without conditioning, from a random physical state
    cfg = config(omega_m=1.0, gamma=gamma, kind=kind, kappa2=kappa2, nu=nu,
                 n_th=n_th)
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    cov = v_0 * rot @ np.diag([math.exp(2 * squeeze),
                               math.exp(-2 * squeeze)]) @ rot.T
    try:
        traj = simulate_conditional(cfg if measure else unmeasured(cfg),
                                    t_end=t_end, tau=default_tau(cfg),
                                    initial_cov=cov)
    except (RiccatiError, cs.PhysicalityError, ValueError):
        return
    rows = np.array([traj.t, traj.vx, traj.vp, traj.vxp])
    assert np.all(np.isfinite(rows))
    assert np.all(traj.vx * traj.vp - traj.vxp**2 >= 1.0 - 1e-9)


def test_steady_state_failure_is_typed(monkeypatch):
    cfg = config(omega_m=1.0, gamma=0.02, kappa2=2.0, nu=0.7, n_th=3.0)
    with pytest.raises(RiccatiError, match="not stable"):
        cs.dynamics._lyapunov(((0.1, 1.0), (-1.0, 0.0)), (1.0, 0.0, 1.0))
    monkeypatch.setattr(cs.dynamics, "_NEWTON_STEPS", 2)
    with pytest.raises(RiccatiError, match="did not converge in 2 steps"):
        simulate_conditional(cfg, t_end=1.0, tau=1e-2)


def test_riccati_failure_is_a_typed_benchmark_error():
    # the benchmark counts a typed error as one failed op; any other
    # exception escaping an op marks the whole run incorrect
    from test_benchmark_bindings import _load

    typed = _load("workloads").TYPED_ERRORS
    assert isinstance(RiccatiError("no steady state"), typed)
    assert issubclass(RiccatiError, cs.NumericsError)
    assert issubclass(cs.QuadratureError, cs.NumericsError)


def test_bad_initial_state_is_named():
    # initial_cov is checked before any work, so a nan or a wrong shape
    # names its argument instead of failing later as another fault
    cfg = config(omega_m=1.0, gamma=0.02, kappa2=2.0, nu=0.7, n_th=1.0)
    for cov in (np.full((2, 2), math.nan), np.eye(3),
                [[1.0, math.inf], [math.inf, 1.0]]):
        with pytest.raises(ValueError, match="initial_cov must be a finite"):
            simulate_conditional(cfg, t_end=1.0, tau=1e-2, initial_cov=cov)


def test_record_grid_validation():
    cfg = config(n_th=1.0)
    with pytest.raises(ValueError, match="tau"):
        simulate_conditional(cfg, t_end=1.0, tau=0.0)
    with pytest.raises(ValueError, match="record_every"):
        simulate_conditional(cfg, t_end=1.0, tau=1e-2, record_every=0)
    for t_end in (0.0, -1e-6, math.nan):
        with pytest.raises(ValueError, match="t_end must be positive"):
            simulate_conditional(cfg, t_end=t_end, tau=1e-2)


@pytest.mark.parametrize("t_end, tau, record_every", [
    (1e300, 1e-10, None),       # t_end / tau overflows
    (1.0, 1e-320, None),        # a subnormal tau overflows it too
    (3e-6, 1e-18, 1),           # 3e12 records
    (1e-3, 1e-2, None),         # round(t_end / tau) = 0: no record
])
def test_record_grid_out_of_range_is_named(t_end, tau, record_every):
    # checked before any array is built: not an OverflowError in round()
    # nor a MemoryError in arange()
    with pytest.raises(ValueError) as exc:
        simulate_conditional(config(n_th=1.0), t_end=t_end, tau=tau,
                             record_every=record_every)
    for name in ("t_end", "tau", "record_every"):
        assert f"{name} = " in str(exc.value)


def test_record_grid_of_zero_steps_is_refused():
    # the last record lies at the multiple of tau nearest t_end; when that
    # is 0 there is no record to return.  round() takes half to even, so
    # t_end = tau / 2 is refused and a t_end above it gives one record
    cfg = config(n_th=1.0)
    with pytest.raises(ValueError, match="rounds to 0 steps"):
        simulate_conditional(cfg, t_end=5e-3, tau=1e-2)
    traj = simulate_conditional(cfg, t_end=6e-3, tau=1e-2)
    assert traj.t.tolist() == [1e-2]


def test_record_grid_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(cs.dynamics, "_MAX_RECORDS", 10)
    traj = simulate_conditional(config(n_th=1.0), t_end=1.0, tau=0.1,
                                record_every=1)
    assert len(traj.t) == 10
    with pytest.raises(ValueError, match="more than 10 records"):
        simulate_conditional(config(n_th=1.0), t_end=1.0, tau=1.0 / 11,
                             record_every=1)


# ---------------------------------------------------------------------------
# closed forms and frames

def test_analytic_shorttime_values():
    vx, vp = analytic_shorttime(3.0, 4.0, 2.0, 0.0)
    assert (vx, vp) == (3.0, 4.0)
    n_th = 2.084e4
    vx, _ = analytic_shorttime(2 * n_th + 1, 2 * n_th + 1, 1.0, 1.0)
    assert vx == pytest.approx(0.99998, abs=1e-5)


def test_analytic_shorttime_uncertainty_product():
    # V_x V_p = (V_p0 + k^2 t)/(1/V_x0 + k^2 t): stays >= 1, purifies
    # monotonically toward 1 from a thermal start, and is pinned at 1 for
    # vacuum input (pure state stays pure)
    ts = np.linspace(0.0, 10.0, 30)
    v0 = 5.0
    prods = np.array([np.prod(analytic_shorttime(v0, v0, 1.0, t))
                      for t in ts])
    assert np.all(prods >= 1.0 - 1e-12)
    assert np.all(np.diff(prods) <= 1e-12)
    pure = np.array([np.prod(analytic_shorttime(1.0, 1.0, 1.0, t))
                     for t in ts])
    assert np.allclose(pure, 1.0, atol=1e-12)


def test_lab_frame_quarter_period_swaps_quadratures():
    omega_m = 2 * math.pi * 1e6
    state = ConditionalState(cov_m=np.diag([2.0, 5.0]),
                             t=math.pi / (2 * omega_m))
    out = lab_frame(state, omega_m)
    assert out.frame == "lab"
    assert np.allclose(out.cov_m, np.diag([5.0, 2.0]), atol=1e-9)


def test_lab_frame_identity_at_full_period():
    omega_m = 1.0
    cov = np.array([[2.0, 0.3], [0.3, 1.5]])
    state = ConditionalState(cov_m=cov, t=6 * math.pi)
    out = lab_frame(state, omega_m)
    assert np.allclose(out.cov_m, cov, atol=1e-9)


def test_lab_frame_round_trip():
    omega_m = 3.0
    cov = np.array([[2.0, -0.4], [-0.4, 3.0]])
    state = ConditionalState(cov_m=cov, t=0.7)
    lab = lab_frame(state, omega_m)
    c, s = math.cos(omega_m * 0.7), math.sin(omega_m * 0.7)
    rot = np.array([[c, -s], [s, c]])
    back = rot @ lab.cov_m @ rot.T
    assert np.allclose(back, cov, atol=1e-12)
    with pytest.raises(ValueError):
        lab_frame(lab, omega_m)


# ---------------------------------------------------------------------------
# stepper oracle (stepper_oracle.py): its internals, and its agreement
# with the exact engine

def test_decoupled_step_is_identity_on_mechanics():
    cfg = config(gamma=0.0, kappa2=0.0)
    S = build_step(0.3, 1e-4, cfg).S
    assert np.allclose(S[:2, :2], np.eye(2), atol=0)
    assert np.allclose(S[:2, 2:], 0.0, atol=0)


def test_full_detection_reflects_light_with_pi_phase():
    cfg = config(kappa2=1.0, nu=1.0)
    S = build_step(0.0, 1e-4, cfg).S
    assert S[2, 2] == pytest.approx(-1.0)
    assert S[3, 3] == pytest.approx(-1.0)
    assert S[2, 4] == 0.0   # no undetected channel to mix with


def test_signal_maps_position_only_at_t_zero():
    cfg = config(kappa2=1.0, nu=1.0)
    tau = 1e-4
    S = build_step(0.0, tau, cfg).S
    assert S[2, 0] == pytest.approx(cfg.kappa_det * math.sqrt(tau), rel=1e-12)
    assert S[2, 1] == 0.0
    # back-action enters the momentum row from p_L
    assert S[1, 3] == pytest.approx(cfg.kappa_det * math.sqrt(tau), rel=1e-12)
    assert S[0, 3] == 0.0


def test_damping_models_encoded_in_step_matrix():
    tau = 1e-5
    gamma = 10.0
    s_mom = build_step(0.0, tau, config(gamma=gamma, kind="momentum",
                                        kappa2=0.0)).S
    assert s_mom[0, 0] == pytest.approx(1.0)
    assert s_mom[1, 1] == pytest.approx(1.0 - tau * gamma)
    s_sym = build_step(0.0, tau, config(gamma=gamma, kind="symmetric",
                                        kappa2=0.0)).S
    assert s_sym[0, 0] == pytest.approx(1.0 - tau * gamma / 2.0)
    assert s_sym[1, 1] == pytest.approx(1.0 - tau * gamma / 2.0)


def test_step_rejects_large_tau():
    cfg = config(omega_m=1e6, kappa2=0.0)
    with pytest.raises(ValueError, match="tau"):
        build_step(0.0, 1e-7, cfg)


def test_noise_spec_blocks():
    n_th = 3.0
    sym = NoiseSpec.for_damping(config(gamma=1.0, kind="symmetric",
                                       n_th=n_th)).cov_in
    assert np.allclose(sym[:4, :4], np.eye(4))
    assert np.allclose(sym[4:, 4:], (2 * n_th + 1) * np.eye(2))
    mom = NoiseSpec.for_damping(config(gamma=1.0, kind="momentum",
                                       n_th=n_th)).cov_in
    assert mom[4, 4] == pytest.approx(1.0 / (2 * n_th + 1))
    assert mom[5, 5] == pytest.approx(2 * n_th + 1)


def test_update_without_correlations_is_identity():
    state = ConditionalState(cov_m=7.0 * np.eye(2), t=0.0)
    joint = np.block([[7.0 * np.eye(2), np.zeros((2, 2))],
                      [np.zeros((2, 2)), np.eye(2)]])
    out = measurement_update(state, joint)
    assert np.allclose(out.cov_m, state.cov_m, rtol=0, atol=1e-12)


def test_vacuum_stays_vacuum_before_coupling():
    state = ConditionalState(cov_m=np.eye(2), t=0.0)
    joint = np.eye(4)
    out = measurement_update(state, joint)
    assert np.allclose(out.cov_m, np.eye(2), atol=1e-12)
    assert np.linalg.det(out.cov_m) >= 1.0 - 1e-9


def test_one_step_riccati_expansion():
    # thermal state, one coupling step at t = 0, then x_L homodyne:
    # V_x -> V/(1 + kappa^2 tau V), V_p -> V + kappa^2 tau
    v0 = 9.0
    kappa2 = 1.0
    tau = 1e-3
    cfg = config(omega_m=1e-6, kappa2=kappa2, nu=1.0, n_th=(v0 - 1) / 2)
    traj = simulate_stepper(cfg, t_end=tau, tau=tau, record_every=1)
    vx_exact = v0 / (1.0 + kappa2 * tau * v0)
    assert traj.vx[0] == pytest.approx(vx_exact, rel=1e-9)
    assert traj.vp[0] == pytest.approx(v0 + kappa2 * tau, rel=1e-9)
    # second-order expansion of the update
    assert traj.vx[0] == pytest.approx(v0 - kappa2 * tau * v0**2,
                                       abs=2 * (kappa2 * tau * v0)**2 * v0)


def test_homodyne_limit_stable_in_r():
    cfg = config(kappa2=1.0, nu=1.0, n_th=10.0)
    outs = []
    for r in (1e10, 1e12, 1e14):
        traj = simulate_stepper(cfg, t_end=0.05, tau=1e-3, r=r,
                                record_every=10)
        outs.append(traj.vx[-1])
    assert outs[0] == pytest.approx(outs[1], rel=1e-6)
    assert outs[2] == pytest.approx(outs[1], rel=1e-6)


def test_closed_system_is_exactly_stationary():
    # kappa = 0 and gamma = 0: nothing moves in the rotating frame
    v0 = 2 * 7.0 + 1
    cfg = config(omega_m=1.0, gamma=0.0, kappa2=0.0, n_th=7.0)
    traj = simulate_stepper(cfg, t_end=30.0, tau=5e-3, record_every=200)
    assert np.all(traj.vx == v0)
    assert np.all(traj.vp == v0)
    assert np.all(traj.vxp == 0.0)


def test_tau_convergence():
    cfg = config(omega_m=1.0, gamma=0.02, kind="momentum", kappa2=2.0, nu=0.5,
                 n_th=20.0)
    kw = dict(t_end=6.0)
    v1 = simulate_stepper(cfg, tau=2e-3, record_every=3000, **kw).vx[-1]
    v2 = simulate_stepper(cfg, tau=1e-3, record_every=6000, **kw).vx[-1]
    assert abs(v2 / v1 - 1) < 1e-3


def test_tau_convergence_at_operating_point(ref_scenario):
    # halving the step changes the recorded variance by < 0.1% for the
    # Q = 5e4, T = 1 K squeezing scenario
    cfg = step_config_for(ref_scenario, "momentum")
    tau = default_tau(cfg)
    big = 10**9   # record final step only
    v1 = simulate_stepper(cfg, 1e-6, tau, record_every=big).vx[-1]
    v2 = simulate_stepper(cfg, 1e-6, tau / 2, record_every=big).vx[-1]
    assert abs(v2 / v1 - 1) < 1e-3


def test_oracle_converges_to_exact_engine_at_operating_point(ref_scenario):
    # the stepper is first order in tau: its worst deviation along 0.5 us of
    # the Q = 5e4, T = 1 K squeezing run falls ~4x when tau falls 4x, on
    # record times identical to the exact engine's
    cfg = step_config_for(ref_scenario, "momentum")
    tau = default_tau(cfg)
    devs = []
    for fac in (1, 4):
        kw = dict(t_end=0.5e-6, tau=tau / fac, record_every=50 * fac)
        exact = simulate_conditional(cfg, **kw)
        oracle = simulate_stepper(cfg, **kw)
        assert np.array_equal(oracle.t, exact.t)
        devs.append(np.abs(oracle.vx / exact.vx - 1.0).max())
    assert devs[0] < 2e-2
    assert devs[1] < 0.3 * devs[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mu_frac=st.one_of(st.sampled_from([0.0, 0.5]),
                         _log_uniform(1e-6, 1.2)),
       q_factor=_log_uniform(1e2, 1e7),
       # both sides of alpha lambda0/4 = 3.65 nm, where w0 stops being an
       # outer edge of the ground shift
       d=st.one_of(st.sampled_from([3e-9, 4e-9]), _log_uniform(1e-9, 1e-4)),
       epsilon=st.floats(1e-3, 0.99), eta_det=st.floats(0.0, 1.0),
       quality=_log_uniform(1e2, 1e7), t_bath=st.floats(0.0, 300.0),
       kind=st.sampled_from(["momentum", "symmetric"]))
def test_whole_parameter_box_end_to_end(mu_frac, q_factor, d, epsilon,
                                        eta_det, quality, t_bath, kind):
    ref = cs.reference_scenario()
    s = cs.ScenarioParams(
        emitter=ref.emitter,
        graphene=cs.GrapheneParams.from_fractions(mu_frac, ref.emitter.omega0,
                                                  q_factor),
        mechanics=cs.MechanicalParams(ref.mechanics.omega_m,
                                      ref.mechanics.mass, quality, t_bath),
        drive=cs.DriveParams(epsilon, eta_det), distance=d)
    # no failure is forgiven: every point of this box gives finite values
    ir, cg, cr = cs.evaluate_coupling(s)
    traj = cs.simulate(s, kind, 1e-7)
    assert np.all(np.isfinite([ir.delta_g, ir.delta_e, ir.delta_omega,
                               ir.gamma, ir.gamma_rad, ir.gamma_nonrad,
                               cg.g_value, cg.error_estimate, cr.g_bar,
                               cr.nu, cr.kappa, cr.merit, cr.merit_ideal]))
    assert ir.gamma == pytest.approx(ir.gamma_rad + ir.gamma_nonrad,
                                     rel=1e-12)
    assert cr.kappa_inv_si > 0.0
    assert math.isfinite(cr.kappa_inv_si) or cr.kappa == 0.0
    rows = np.array([traj.t, traj.vx, traj.vp, traj.vxp])
    assert np.all(np.isfinite(rows))
    assert np.all(traj.vx * traj.vp - traj.vxp**2 >= 1.0 - 1e-9)
