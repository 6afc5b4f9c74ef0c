"""The row refinement with one integrand pass per level, kept as an oracle.

quadrature.integrate_rows sums level 0 and its bisection in one pass of
the integrand.  This is the engine it replaced: every level, level 0
included, goes through the integrand on its own, with its own chunk loop.
Each panel's value and each row's sum depend only on that panel's and that
row's nodes, so the two engines must agree bit for bit.
"""

import numpy as np

from casimir_sense import quadrature
from casimir_sense.quadrature import QuadratureError, RTOL


def level(f, edges, columns, x, w):
    """Gauss-Legendre sums of f over each row's panels, shape (..., rows)."""
    rows, panels = len(edges), edges.shape[1] - 1
    half = 0.5 * (edges[:, 1:] - edges[:, :-1]).ravel()
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:]).ravel()
    columns = [np.repeat(c, panels)[:, None] for c in columns]
    step = max(1, quadrature._CHUNK_NODES // x.size)
    sums = []
    for i in range(0, half.size, step):
        nodes = half[i:i + step, None] * x + mid[i:i + step, None]
        vals = f(nodes, *(c[i:i + step] for c in columns))
        sums.append(np.einsum("...n,n->...", vals, w))
    sums = np.concatenate(sums, axis=-1) * half
    return sums.reshape(sums.shape[:-1] + (rows, panels)).sum(axis=-1)


def bisected(edges):
    """Each row of edges with the midpoint of each of its panels added."""
    halved = np.empty((len(edges), 2 * edges.shape[1] - 1))
    halved[:, ::2] = edges
    halved[:, 1::2] = 0.5 * (edges[:, :-1] + edges[:, 1:])
    return halved


def integrate_rows_level_by_level(f, edges, *columns, rtol: float = RTOL):
    """integrate_rows with one integrand pass per level."""
    x, w = quadrature._gauss_nodes(quadrature._ORDER)
    edges = np.asarray(edges, dtype=float)
    columns = [np.asarray(c) for c in columns]
    active = np.arange(len(edges))
    prev = level(f, edges, columns, x, w)
    edges = bisected(edges)
    cur = level(f, edges, columns, x, w)
    value, error = np.empty_like(prev), np.empty(prev.shape)
    err = abs(cur - prev)
    for doubling in range(quadrature._MAX_DOUBLINGS):
        if doubling:
            edges = bisected(edges)
            cur = level(f, edges, columns, x, w)
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
