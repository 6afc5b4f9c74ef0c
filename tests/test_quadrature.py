import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from casimir_sense.quadrature import (_CHUNK_NODES, QuadratureError,
                                      _gauss_nodes, clip_edges, fixed_panels,
                                      integrate_refined, integrate_rows)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_exact_on_smooth_integrand():
    val, err = integrate_refined(np.exp, [0.0, 1.0], rtol=1e-12)
    assert val == pytest.approx(math.e - 1.0, rel=1e-14)
    assert err < 1e-12


def test_complex_integrand():
    val, _ = integrate_refined(lambda x: np.exp(1j * x), [0.0, np.pi],
                               rtol=1e-12)
    assert val == pytest.approx(2j, rel=1e-12)


def test_reported_error_bounds_tolerance_refinement():
    # loosening the tolerance changes the value by less than the reported
    # estimate of the looser run
    f = lambda x: np.exp(-3 * x) * np.sin(40 * x) ** 2 / (1 + x * x)
    loose, est = integrate_refined(f, [0.0, 2.0, 10.0], rtol=1e-5)
    tight, _ = integrate_refined(f, [0.0, 2.0, 10.0], rtol=1e-12)
    assert abs(loose - tight) <= est


def test_nonconvergence_raises_with_residual():
    # inverse-sqrt singularity inside a panel: bisection gains only ~sqrt(2)
    # per level, so the refinement budget runs out
    f = lambda x: 1.0 / np.sqrt(np.abs(x - 1 / math.pi) + 1e-300)
    with pytest.raises(QuadratureError) as exc:
        integrate_refined(f, [0.0, 1.0], rtol=1e-12, max_doublings=8)
    assert exc.value.residual > 0


def test_clip_edges():
    edges = clip_edges([5.0, -1.0, 0.5, 12.0, 0.5], 0.0, 10.0)
    assert edges.tolist() == [0.0, 0.5, 5.0, 10.0]


def test_fixed_panels_additivity():
    f = lambda x: x**3 - 2 * x
    one = fixed_panels(f, [0.0, 2.0])
    two = fixed_panels(f, [0.0, 1.3, 2.0])
    assert one == pytest.approx(two, rel=1e-14)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_integrand_fails_fast(bad):
    calls = []

    def f(x):
        calls.append(x.size)
        return np.full(x.shape, bad)

    with pytest.raises(QuadratureError, match="not finite"):
        integrate_refined(f, [0.0, 1.0])
    assert len(calls) <= 2


def test_stacked_integrand_converges_in_every_component():
    # the first component is exact at the first level; the second needs
    # several doublings, which must not be skipped
    f = lambda x: np.array((np.ones_like(x), np.sin(60.0 * x) ** 2))
    val, err = integrate_refined(f, [0.0, 1.0], rtol=1e-12)
    exact = 0.5 - math.sin(120.0) / 240.0
    assert val.shape == err.shape == (2,)
    assert val[0] == pytest.approx(1.0, rel=1e-14)
    assert val[1] == pytest.approx(exact, rel=1e-11)
    scalar, _ = integrate_refined(lambda x: np.sin(60.0 * x) ** 2, [0.0, 1.0],
                                  rtol=1e-12)
    assert val[1] == scalar


def test_stacked_nonfinite_component_fails_fast():
    f = lambda x: np.array((np.exp(x), np.full(x.shape, np.nan)))
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_refined(f, [0.0, 1.0])


def test_deep_levels_are_evaluated_in_bounded_chunks():
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.array((np.cos(x), x * np.cos(x)))

    edges = np.linspace(0.0, 3.0, 2001)            # 2000 panels, 48,000 nodes
    val = fixed_panels(f, edges)
    assert len(sizes) > 1 and max(sizes) <= _CHUNK_NODES
    assert sum(sizes) == 2000 * 24
    exact = (math.sin(3.0), 3.0 * math.sin(3.0) + math.cos(3.0) - 1.0)
    assert val == pytest.approx(exact, rel=1e-13)
    sizes.clear()
    fixed_panels(f, edges[:101])                   # 100 panels: one call
    assert sizes == [100 * 24]


def test_gauss_nodes_match_leggauss():
    from numpy.polynomial.legendre import leggauss

    x, w = _gauss_nodes(24)
    ref_x, ref_w = leggauss(24)
    np.testing.assert_allclose(x, ref_x, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(w, ref_w, rtol=0.0, atol=1e-14)


def _waves(x, k):
    return np.array((np.sin(k * x) ** 2, x * np.cos(k * x)))


def test_rows_match_one_row_calls():
    ks = np.array([1.0, 7.0, 60.0, 0.5])
    edges = np.tile([0.0, 0.3, 1.0], (ks.size, 1))
    val, err = integrate_rows(_waves, edges, ks, rtol=1e-12)
    assert val.shape == err.shape == (2, ks.size)
    for i, k in enumerate(ks):
        one, one_err = integrate_refined(lambda x: _waves(x, k),
                                         [0.0, 0.3, 1.0], rtol=1e-12)
        assert np.array_equal(val[:, i], one)
        assert np.array_equal(err[:, i], one_err)
    exact = 0.5 - np.sin(2.0 * ks) / (4.0 * ks)
    np.testing.assert_allclose(val[0], exact, rtol=1e-11)


def test_row_needing_deeper_levels_leaves_other_rows_unchanged():
    levels = []

    def f(x, k):
        levels.append(k.ravel().tolist())
        return np.sin(k * x) ** 2

    edges = np.tile([0.0, 1.0], (3, 1))
    easy, _ = integrate_rows(f, edges[:2], [1.0, 2.0], rtol=1e-12)
    depth_easy = len(levels)
    levels.clear()
    mixed, _ = integrate_rows(f, edges, [1.0, 2.0, 90.0], rtol=1e-12)
    assert np.array_equal(mixed[:2], easy)
    assert len(levels) > depth_easy            # the hard row went deeper ...
    assert levels[-1] == [90.0]                # ... alone
    assert mixed[2] == pytest.approx(0.5 - math.sin(180.0) / 360.0, rel=1e-11)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_row_fails_fast():
    calls = []

    def f(x, bad):
        calls.append(x.shape)
        return np.where(bad, np.nan, np.exp(x))

    with pytest.raises(QuadratureError, match="not finite"):
        integrate_rows(f, np.tile([0.0, 1.0], (3, 1)), [False, True, False])
    assert len(calls) <= 2


def test_rows_are_evaluated_in_bounded_chunks():
    sizes = []

    def f(x, k):
        sizes.append(x.size)
        return np.array((np.cos(k * x), x * np.cos(k * x)))

    ks = np.linspace(0.5, 1.5, 40)
    edges = np.tile(np.linspace(0.0, 3.0, 201), (ks.size, 1))   # 4,800 nodes
    val, _ = integrate_rows(f, edges, ks, rtol=1e-12)
    assert len(sizes) > 2 and max(sizes) <= _CHUNK_NODES
    exact = np.sin(3.0 * ks) / ks
    np.testing.assert_allclose(val[0], exact, rtol=1e-13)
    # a row longer than a chunk goes in groups of panels
    sizes.clear()
    edges = np.tile(np.linspace(0.0, 3.0, 2001), (2, 1))        # 48,000 nodes
    integrate_rows(f, edges, [1.0, 2.0], rtol=1e-12)
    assert max(sizes) <= _CHUNK_NODES
    assert sum(sizes[:12]) == 2 * 2000 * 24     # first level: 6 groups a row


def test_library_does_not_import_numpy_ma_or_polynomial():
    # numpy.ma and numpy.polynomial each add over a megabyte of memory
    code = """if True:
        import sys
        import casimir_sense as cs
        s = cs.reference_scenario()
        cs.evaluate_coupling(s)
        cs.decay_rates(s.distance, s.emitter, s.graphene)
        for damping in ("momentum", "symmetric"):
            cs.simulate(s, damping, 3e-7)
        print(sorted(m for m in sys.modules
                     if m.split(".")[:2] in (["numpy", "ma"],
                                             ["numpy", "polynomial"])))
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
