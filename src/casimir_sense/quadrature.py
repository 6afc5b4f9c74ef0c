"""Adaptive panel quadrature used by the Casimir integrals.

Composite Gauss-Legendre rule over a list of panel edges; the panel set is
refined by bisecting every panel until two successive refinements agree.
Integrands must be vectorized over the node array (real or complex values).
An integrand may also return a stack of components, nodes along the last
axis.  integrate_rows refines a family of such integrals at once, one per
row of edges; integrate_refined is its one-row case.  Each level is the sum
over panels of the half-width times the weighted node sum, evaluated in
chunks of at most _CHUNK_NODES elements.  The scheme is deliberately
simple: the integrands here are smooth between well-understood breakpoints
(kernel scale 1/2z, light line, plasmon pole), which the caller supplies as
initial edges; the imaginary-axis kernel is integrated over chi =
sqrt(1 + x^2), so its edges are the chi of those breakpoints.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: elements (rows x nodes) per integrand call; longer rows go in panel groups
_CHUNK_NODES = 1 << 13


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge; carries the residual estimate."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


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


def _level(f, edges, columns, x, w):
    """Gauss-Legendre sums of f over each row's panels, shape (..., rows).

    Each panel's node sum is weighted by its half-width, sum_p h_p sum_n
    w_n f.  Whole rows go into one call up to _CHUNK_NODES elements; a longer
    row goes alone, in groups of panels whose sums are added in order.
    """
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    rows, panels = half.shape
    row_step = max(1, _CHUNK_NODES // (panels * x.size))
    panel_step = panels if panels * x.size <= _CHUNK_NODES \
        else max(1, _CHUNK_NODES // x.size)
    sums = []
    for i in range(0, rows, row_step):
        cols = [c[i:i + row_step] for c in columns]
        total = 0.0
        for j in range(0, panels, panel_step):
            h = half[i:i + row_step, j:j + panel_step]
            nodes = h[..., None] * x
            nodes += mid[i:i + row_step, j:j + panel_step, None]
            vals = f(nodes.reshape(len(h), -1), *cols)
            # einsum, not a matmul: no node-sized weight array, and no BLAS
            panel_sums = np.einsum("...n,n->...",
                                   vals.reshape(*vals.shape[:-2], *h.shape,
                                                x.size), w)
            total = total + (panel_sums * h).sum(axis=-1)
        sums.append(total)
    return np.concatenate(sums, axis=-1)


def integrate_rows(f, edges, *columns, rtol: float = 1e-9, order: int = 24,
                   max_doublings: int = 12):
    """Integrate f along each row of ``edges`` (rows x m, sorted per row).

    f(x, *cols) gets the nodes x (r x n) of r rows and, of each of
    ``columns`` (one value per row), the values of those rows as r x 1; it
    returns (..., r, n).  All rows bisect together, and a row is frozen at
    the first level where |I_k - I_{k-1}| <= rtol * |I_k| in every component.
    Returns (values, error estimates), each (..., rows); raises
    QuadratureError when the budget of doublings is exhausted, or once two
    successive sums of a row are not finite.
    """
    x, w = _gauss_nodes(order)
    edges = np.asarray(edges, dtype=float)
    columns = [np.asarray(c)[:, None] for c in columns]
    active = np.arange(len(edges))
    prev = _level(f, edges, columns, x, w)
    value, error = np.empty_like(prev), np.empty(prev.shape)
    for _ in range(max_doublings):
        halved = np.empty((len(edges), 2 * edges.shape[1] - 1))
        halved[:, ::2] = edges
        halved[:, 1::2] = 0.5 * (edges[:, :-1] + edges[:, 1:])
        edges = halved
        cur = _level(f, edges, columns, x, w)
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


def fixed_panels(f, edges, order: int = 24):
    """Composite Gauss-Legendre integral of f over consecutive [e_i, e_i+1]."""
    edges = np.asarray(edges, dtype=float)[None]
    return _level(lambda x: f(x[0])[..., None, :], edges, [],
                  *_gauss_nodes(order))[..., 0]


def integrate_refined(f, edges, rtol: float = 1e-9, order: int = 24,
                      max_doublings: int = 12):
    """Integrate f over one set of edges: integrate_rows on a single row.

    Returns (value, error_estimate), per component of a stacked f.
    """
    # a sorted set, because np.unique imports numpy.ma (over a megabyte)
    edges = np.array(sorted(set(map(float, edges))))
    if edges.size < 2:
        raise ValueError("need at least two distinct edges")
    val, err = integrate_rows(lambda x: f(x[0])[..., None, :], edges[None],
                              rtol=rtol, order=order,
                              max_doublings=max_doublings)
    return val[..., 0], err[..., 0]


def clip_edges(candidates, lo: float, hi: float):
    """Sorted unique edge list restricted to [lo, hi], endpoints included."""
    return np.array(sorted({lo, hi, *(p for p in candidates if lo < p < hi)}),
                    dtype=float)
