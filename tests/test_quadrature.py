import math

import numpy as np
import pytest

from casimir_sense.quadrature import (_CHUNK_NODES, QuadratureError,
                                      clip_edges, fixed_panels,
                                      integrate_refined)


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
