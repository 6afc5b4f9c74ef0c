"""Adaptive panel quadrature used by the Casimir integrals.

Composite Gauss-Legendre rule over a list of panel edges, refined by
bisection until two successive levels agree.  An integrand gets a
(panels x nodes) array, one row of Gauss nodes per panel, and returns that
shape (real or complex values) or a stack of components (..., panels,
nodes).  integrate_rows refines a family of such integrals at once, one
per row of edges, and freezes each row on its own; integrate_refined
makes each panel of one set of edges such a row and sums them, so every
panel stops as soon as it has converged.  Every row's first test needs
level 0 and its bisection, so the first two levels share one pass of the
integrand; each later level is a pass of its own.  A pass walks the panels
of all its levels and rows in chunks of at most _CHUNK_NODES elements and
sums a row's panels only once all are in, so no value depends on the
chunk size or on which levels share a pass.  The imaginary-axis kernel is
integrated over chi = sqrt(1 + x^2), so its edges are the chi of its
breakpoints.

A relative test per row or per panel is sound for a sum whose terms have
one sign in each component: if every term is within RTOL of its true
value, so is their sum.  One tolerance, RTOL, therefore serves both
levels of the nested ground-shift integral: the outer integral over
frequency, refined per panel, and the inner imaginary-axis rows that its
nodes evaluate.  For s >= 0 and chi >= 1 the inner integrand

    e^{-2 (chi - 1) zb} [chi s/(chi s + 2 chi^2)
                         + (2 chi^2 - 1) chi s/(chi s + 2)]

is >= 0, and so is chi times it, its zb-slope up to the factor -2: every
row has one sign, in value and in slope.  The outer Gauss weights, and
the factors t^3 and u/c that the outer integrand puts on each row, are
positive, so each outer panel, too, has one sign in each component, and
neither rows nor panels cancel against each other.  An inner tolerance
tighter than the outer one buys nothing.  The returned level is one
bisection finer than the pair that was tested, so each true error lies
far below RTOL.  For an integrand whose panels cancel, the per-panel test
bounds the error by RTOL times the sum of the panels' magnitudes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Gauss-Legendre nodes per panel
_ORDER = 24
#: elements (panels x nodes) per integrand call; it sets the speed only,
#: since no sum depends on it.  The heap, not a cache, bounds it: at 8,192
#: an op's temporaries reach further up the heap (traced one-op peak 781
#: against 532 KiB), glibc returns the free top after each op once it
#: exceeds the trim threshold, and the next op faults it back in: 96
#: against 0.08 minor faults an op on coupling_grid, 135 and 141 against
#: 0.01 and 0.00 on scattering_map and squeeze, for no time gained
#: (medians of three runs 1.99 against 1.98, 2.05 against 1.98 and 2.40
#: against 2.47 ms an op; scripts/fault_count.py, 2-vCPU Xeon, glibc 2.36)
_CHUNK_NODES = 1 << 12
#: relative tolerance of every refinement, both levels of the nested
#: Casimir integral included (module docstring)
RTOL = 1e-8
#: bisections of every panel before refinement gives up
_MAX_DOUBLINGS = 12


class NumericsError(RuntimeError):
    """Base of the typed numerical failures (quadrature, Riccati)."""


class QuadratureError(NumericsError):
    """Adaptive refinement failed to converge; carries the reason and the
    residual estimate."""

    def __init__(self, reason: str, residual: float):
        super().__init__(f"{reason} (residual estimate {residual:.3e})")
        self.reason, self.residual = reason, residual


@lru_cache(maxsize=8)
def _gauss_nodes(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], by Newton's method on the
    Legendre recurrence (importing numpy.polynomial costs over a megabyte)."""
    x = -np.cos(np.pi * (np.arange(order) + 0.75) / (order + 0.5))
    step = 0.0
    for _ in range(9):          # 8 Newton steps; the last pass gives the slope
        x = x - step
        p0, p1 = np.ones_like(x), x
        for n in range(2, order + 1):
            p0, p1 = p1, ((2 * n - 1) * x * p1 - (n - 1) * p0) / n
        slope = order * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def _level(f, layouts, columns, x, w):
    """Gauss-Legendre sums of f over each row's panels, one (..., rows)
    array per layout of edges (each rows x m_k, the same rows).

    The panels of all layouts and rows go in order, whole panels a call,
    as one (panels x 2) map [half-width h_p, midpoint m_p]; a chunk's nodes
    are its rows of the map times the (2 x nodes) basis [x; 1], that is
    h_p x_n + m_p, rounded after the product and after the sum as the
    expression is.  Each panel's node sum is weighted by its half-width,
    sum_p h_p sum_n w_n f, and a row's panels are summed only once all of
    them are in.
    """
    rows, counts = len(layouts[0]), [e.shape[1] - 1 for e in layouts]
    panel_map = np.concatenate([
        np.stack((0.5 * (e[:, 1:] - e[:, :-1]), 0.5 * (e[:, :-1] + e[:, 1:])),
                 axis=-1).reshape(-1, 2) for e in layouts])
    basis = np.stack((x, np.ones_like(x)))
    columns = [np.concatenate([np.repeat(c, n) for n in counts])[:, None]
               for c in columns]
    step = max(1, _CHUNK_NODES // x.size)
    sums = []
    for i in range(0, len(panel_map), step):
        # einsum, not a matmul: numpy sends a one-panel product to BLAS
        # gemv, which rounds h x + m differently in the last bit
        nodes = np.einsum("pk,kn->pn", panel_map[i:i + step], basis)
        vals = f(nodes, *[c[i:i + step] for c in columns])
        # einsum again: no node-sized weight array, and no BLAS
        sums.append(np.einsum("...n,n->...", vals, w))
    sums = np.concatenate(sums, axis=-1)
    sums *= panel_map[:, 0]
    out, start = [], 0
    for n in counts:
        part = sums[..., start:start + rows * n]
        out.append(part.reshape(part.shape[:-1] + (rows, n)).sum(axis=-1))
        start += rows * n
    return out


def _bisected(edges):
    """Each row of edges with the midpoint of each of its panels added."""
    halved = np.empty((len(edges), 2 * edges.shape[1] - 1))
    halved[:, ::2] = edges
    halved[:, 1::2] = 0.5 * (edges[:, :-1] + edges[:, 1:])
    return halved


def integrate_rows(f, edges, *columns, rtol: float = RTOL):
    """Integrate f along each row of ``edges`` (rows x m, sorted per row).

    f(x, *cols) gets the nodes x (p x n) of p panels, one row of Gauss
    nodes per panel, and, of each of ``columns`` (one value per row of
    edges), the value of each panel's row as p x 1; it returns (..., p, n).
    All rows bisect together, and a row is frozen at the first level where
    |I_k - I_{k-1}| <= rtol * |I_k| in every component.
    Returns (values, error estimates), each (..., rows); raises
    QuadratureError when _MAX_DOUBLINGS doublings do not converge, or once
    two successive sums of a row are not finite.
    """
    x, w = _gauss_nodes(_ORDER)
    edges = _bisected(np.asarray(edges, dtype=float))
    columns = [np.asarray(c) for c in columns]
    active = np.arange(len(edges))
    # every row's first test needs level 0 and its bisection: one pass
    prev, cur = _level(f, [edges[:, ::2], edges], columns, x, w)
    value, error = np.empty_like(prev), np.empty(prev.shape)
    err = abs(cur - prev)
    for doubling in range(_MAX_DOUBLINGS):
        if doubling:
            edges = _bisected(edges)
            (cur,) = _level(f, [edges], columns, x, w)
            err = abs(cur - prev)
        n = active.size
        done = (err - rtol * abs(cur)).reshape(-1, n).max(axis=0) <= 0.0
        if not (np.isfinite(prev).reshape(-1, n).all(axis=0)
                | np.isfinite(cur).reshape(-1, n).all(axis=0)).all():
            raise QuadratureError("integrand is not finite", np.max(err))
        value[..., active[done]] = cur[..., done]
        error[..., active[done]] = err[..., done]
        if done.all():
            return value, error
        active, edges, prev = active[~done], edges[~done], cur[..., ~done]
        columns = [c[~done] for c in columns]
    raise QuadratureError("quadrature did not converge", np.max(err))


def integrate_refined(f, edges, rtol: float = RTOL):
    """Integrate f over one set of edges, each panel refined on its own.

    Each panel is a row of integrate_rows, so it stops once its bisection
    agrees with it to rtol (sound where every component of f has one sign;
    module docstring).  Returns (value, error_estimate), the sums over the
    panels, per component of a stacked f.
    """
    # a sorted set, because np.unique imports numpy.ma (over a megabyte)
    edges = np.array(sorted(set(map(float, edges))))
    if edges.size < 2:
        raise ValueError("need at least two distinct edges")
    val, err = integrate_rows(f, np.stack((edges[:-1], edges[1:]), axis=1),
                              rtol=rtol)
    return val.sum(axis=-1), err.sum(axis=-1)
